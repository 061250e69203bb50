// BenchmarkScenario runs every row of the scenario table (internal/figures)
// under `go test -bench`: the paper's 18 Chapter 6 figures at SI,
// Serializable SI and S2PL, the scaling mixes and the design ablations, as
// sub-benchmarks named <scenario>/<isolation>. Each reports committed
// transactions per second and the abort breakdown at one MPL (8 workers per
// GOMAXPROCS); cmd/ssibench sweeps the same rows over the full MPL axis.
//
//	go test -bench 'Scenario/^fig6\.1$/' -benchtime=1x -run '^$' .
//
// The TPC-C++ figures run at the table's quick scale: the paper's data
// ratios with a reduced warehouse and initial-order count, where the full
// volume (W=10, 3000 initial orders per district) would dwarf a CI box.
package ssi_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ssi/internal/figures"
	"ssi/internal/harness"
	"ssi/ssidb"
)

func BenchmarkScenario(b *testing.B) {
	for _, s := range figures.All(figures.QuickScale()) {
		isos := s.Isos
		if s.Programs != nil {
			rep, err := s.Report()
			if err != nil {
				b.Fatal(err)
			}
			isos = []ssidb.Isolation{rep.Level}
		}
		for _, iso := range isos {
			b.Run(s.Name+"/"+iso.String(), func(b *testing.B) {
				in, err := s.Open(iso, 0, false)
				if err != nil {
					b.Fatal(err)
				}
				defer in.Close()
				var c harness.Counts
				var seed atomic.Int64
				var bg sync.WaitGroup
				var stop atomic.Bool
				if in.Background != nil {
					bg.Add(1)
					go func() {
						defer bg.Done()
						r := rand.New(rand.NewSource(1))
						for !stop.Load() {
							in.Background(r)
						}
					}()
				}
				// The paper's interesting regimes need real multiprogramming;
				// 8×GOMAXPROCS workers approximates its mid-range MPL even on
				// small machines.
				b.SetParallelism(8)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					r := rand.New(rand.NewSource(seed.Add(1) * 104729))
					for pb.Next() {
						c.Add(in.Txn(r))
					}
				})
				b.StopTimer()
				stop.Store(true)
				bg.Wait()
				if c.Other > 0 {
					b.Fatalf("%d transactions failed with unclassified errors", c.Other)
				}
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(c.Commits)/secs, "commits/s")
				}
				n := float64(b.N)
				b.ReportMetric(float64(c.Deadlocks)/n, "deadlocks/op")
				b.ReportMetric(float64(c.Conflicts)/n, "conflicts/op")
				b.ReportMetric(float64(c.Unsafe)/n, "unsafe/op")
				b.ReportMetric(float64(in.DB.StatsSnapshot().LockedKeys), "locked-keys")
			})
		}
	}
}
