package harness

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ssi/ssidb"
)

func TestCountsClassification(t *testing.T) {
	var c Counts
	c.Add(nil)
	c.Add(ssidb.ErrDeadlock)
	c.Add(ssidb.ErrWriteConflict)
	c.Add(ssidb.ErrUnsafe)
	c.Add(ErrRollback)
	c.Add(errors.New("something else"))
	if c.Commits != 1 || c.Deadlocks != 1 || c.Conflicts != 1 || c.Unsafe != 1 || c.Rollbacks != 1 || c.Other != 1 {
		t.Fatalf("classification wrong: %+v", c)
	}
	if c.Aborts() != 5 {
		t.Fatalf("Aborts = %d", c.Aborts())
	}
	// Wrapped errors classify by errors.Is.
	var c2 Counts
	c2.Add(errors.Join(errors.New("ctx"), ssidb.ErrUnsafe))
	if c2.Unsafe != 1 {
		t.Fatalf("wrapped unsafe not classified: %+v", c2)
	}
}

func TestRunCountsCommitsAndErrors(t *testing.T) {
	n := 0
	fn := func(r *rand.Rand) error {
		n++
		if n%5 == 0 {
			return ssidb.ErrWriteConflict
		}
		return nil
	}
	res := Run(fn, Options{MPL: 1, Duration: 30 * time.Millisecond})
	if res.Commits == 0 || res.Conflicts == 0 {
		t.Fatalf("res = %+v", res)
	}
	if res.TPS <= 0 {
		t.Fatalf("TPS = %v", res.TPS)
	}
	ratio := float64(res.Conflicts) / float64(res.Commits)
	if ratio < 0.15 || ratio > 0.40 { // expect ~1/4
		t.Fatalf("conflict ratio %.2f, want ~0.25", ratio)
	}
	if got := res.ErrRate("conflict"); math.Abs(got-ratio) > 1e-9 {
		t.Fatalf("ErrRate = %v, want %v", got, ratio)
	}
}

func TestRunUsesAllWorkers(t *testing.T) {
	seen := make(chan int64, 1024)
	fn := func(r *rand.Rand) error {
		select {
		case seen <- r.Int63():
		default:
		}
		time.Sleep(time.Millisecond)
		return nil
	}
	Run(fn, Options{MPL: 8, Duration: 50 * time.Millisecond})
	close(seen)
	distinct := map[int64]bool{}
	for v := range seen {
		distinct[v] = true
	}
	// Each worker has its own seeded stream; with 8 workers we expect many
	// distinct first draws.
	if len(distinct) < 4 {
		t.Fatalf("only %d distinct streams; MPL not applied?", len(distinct))
	}
}

func TestWarmupExcluded(t *testing.T) {
	var total int
	fn := func(r *rand.Rand) error {
		total++
		time.Sleep(100 * time.Microsecond)
		return nil
	}
	res := Run(fn, Options{MPL: 1, Duration: 30 * time.Millisecond, Warmup: 30 * time.Millisecond})
	if res.Commits >= uint64(total) {
		t.Fatalf("warmup iterations counted: commits=%d total=%d", res.Commits, total)
	}
}

func TestTrialsProduceConfidenceInterval(t *testing.T) {
	fn := func(r *rand.Rand) error { return nil }
	res := Run(fn, Options{MPL: 2, Duration: 10 * time.Millisecond, Trials: 3})
	if res.TPSCI95 < 0 {
		t.Fatalf("negative CI: %v", res.TPSCI95)
	}
	if res.Elapsed < 30*time.Millisecond {
		t.Fatalf("elapsed %v, want >= 3 trials' worth", res.Elapsed)
	}
}

func TestCI95(t *testing.T) {
	if ci95([]float64{5}) != 0 {
		t.Fatal("single sample must have zero CI")
	}
	c := ci95([]float64{10, 10, 10})
	if c != 0 {
		t.Fatalf("zero-variance CI = %v", c)
	}
	c = ci95([]float64{8, 10, 12})
	if c <= 0 || c > 10 {
		t.Fatalf("CI = %v", c)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.99, 990 * time.Microsecond}, {1, 1000 * time.Microsecond}} {
		got := h.Quantile(c.q)
		// Conservative: never below the exact quantile, at most one bucket
		// (1/16 of the value) above it.
		if got < c.want || got > c.want+c.want/16 {
			t.Fatalf("q%.2f = %v, want %v..%v", c.q, got, c.want, c.want+c.want/16)
		}
	}
	if h.Mean() != 500500*time.Nanosecond || h.Count() != 1000 {
		t.Fatalf("mean %v count %d", h.Mean(), h.Count())
	}
	var m Histogram
	m.Record(5 * time.Second)
	m.Merge(&h)
	if m.Count() != 1001 || m.Quantile(1) != 5*time.Second {
		t.Fatalf("merge: count %d max %v", m.Count(), m.Quantile(1))
	}
	// Bucket edges round-trip for every bucket.
	for i := 0; i < len(h.buckets)-1; i++ {
		if lo := bucketLow(i); bucketOf(lo) != i || bucketOf(bucketLow(i+1)-1) != i {
			t.Fatalf("bucket %d: low %d maps to %d", i, lo, bucketOf(lo))
		}
	}
}

func TestRunSetupAndBackground(t *testing.T) {
	var setups atomic.Int32
	var bg atomic.Int64
	res := Run(nil, Options{
		MPL:      3,
		Duration: 20 * time.Millisecond,
		Setup: func(w int) TxnFunc {
			setups.Add(1)
			return func(r *rand.Rand) error {
				if w == 2 {
					return errors.New("worker 2 broke")
				}
				time.Sleep(100 * time.Microsecond)
				return nil
			}
		},
		Background: func(r *rand.Rand) error {
			bg.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		},
	})
	if setups.Load() != 3 {
		t.Fatalf("Setup called %d times, want once per worker", setups.Load())
	}
	if res.Commits == 0 || res.Other == 0 || res.Err == nil || res.Err.Error() != "worker 2 broke" {
		t.Fatalf("res = %s err=%v", Describe(res), res.Err)
	}
	if res.Latency.Count() != res.Commits || res.Latency.Quantile(0.5) < 100*time.Microsecond {
		t.Fatalf("latency: %d samples for %d commits, p50 %v", res.Latency.Count(), res.Commits, res.Latency.Quantile(0.5))
	}
	if res.Background.Commits == 0 || res.Background.Commits > uint64(bg.Load()) ||
		res.BackgroundLatency.Mean() < time.Millisecond {
		t.Fatalf("background: %+v of %d, mean %v", res.Background, bg.Load(), res.BackgroundLatency.Mean())
	}
}
