// Allocation budgets for the storage read path: the point-read and
// ordered-scan microbenchmarks, and the tests that pin their allocs/op.
package ssi_test

import (
	"fmt"
	"testing"

	"ssi/internal/workload/kvmix"
	"ssi/ssidb"
)

// Allocation microbenchmarks for the storage read path. ReportAllocs makes
// allocs/op part of every run (CI included, no -benchmem needed), so a
// regression that starts allocating per Get or per scanned key is visible.
func BenchmarkGetAlloc(b *testing.B) {
	for _, c := range []struct {
		name string
		iso  ssidb.Isolation
		ro   bool
	}{
		{"SI", ssidb.SnapshotIsolation, false},
		{"SSI", ssidb.SerializableSI, false},
		// Declared read-only at SSI: on this quiet database the snapshot is
		// safe immediately, so the reads run SIREAD-free — the allocs/op
		// must match plain SI.
		{"SSI-RO", ssidb.SerializableSI, true},
	} {
		for _, tshards := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/tshards=%d", c.name, tshards), func(b *testing.B) {
				db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards})
				cfg := kvmix.DefaultConfig()
				if err := kvmix.Load(db, cfg); err != nil {
					b.Fatal(err)
				}
				key := []byte{0, 0, 0x12, 0x34}
				body := func(tx *ssidb.Txn) error {
					_, _, err := tx.Get(kvmix.Table, key)
					return err
				}
				run := func() error { return db.Run(c.iso, body) }
				if c.ro {
					run = func() error { return db.RunReadOnly(c.iso, body) }
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkScanAlloc measures ordered scans per op — the k-way merged path
// when tshards > 1. The 64-key span is the single-round fast path; the
// 1024-key span crosses multiple lock-coupled rounds (latch drops, iterator
// revalidation, per-round SIREAD flushes under SSI elsewhere), so it tracks
// the cost of the handoff protocol itself. Merge state is pooled per table,
// so neither span should allocate per partition or per round.
func BenchmarkScanAlloc(b *testing.B) {
	for _, tshards := range []int{1, 8} {
		for _, span := range []int{64, 1024} {
			b.Run(fmt.Sprintf("tshards=%d/span=%d", tshards, span), func(b *testing.B) {
				db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards})
				cfg := kvmix.DefaultConfig()
				if err := kvmix.Load(db, cfg); err != nil {
					b.Fatal(err)
				}
				from := kvmix.Key(0x1000)
				to := kvmix.Key(0x1000 + span)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
						return tx.Scan(kvmix.Table, from, to, func(k, v []byte) bool { return true })
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestScanAllocBudget asserts the allocs/op budget for the scan path: the
// merged multi-shard scan must cost the same as the single-tree scan (the
// merge heap, iterator slices and per-round state are pooled), and a
// multi-round scan must not allocate per round. The budget is the item
// buffer's growth plus the fixed per-transaction records.
func TestScanAllocBudget(t *testing.T) {
	for _, c := range []struct {
		tshards, span int
		budget        float64
	}{
		// 64 items: ~7 growth steps of the items slice + 2 txn records +
		// closure plumbing. Identical budget for 1 and 8 shards is the
		// point: the merge itself must be free.
		{1, 64, 14},
		{8, 64, 14},
		// 1024 items cross ≥4 rounds: a few more growth steps, nothing per
		// round or per partition.
		{1, 1024, 20},
		{8, 1024, 20},
	} {
		t.Run(fmt.Sprintf("tshards=%d/span=%d", c.tshards, c.span), func(t *testing.T) {
			db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: c.tshards})
			cfg := kvmix.DefaultConfig()
			if err := kvmix.Load(db, cfg); err != nil {
				t.Fatal(err)
			}
			from := kvmix.Key(0x1000)
			to := kvmix.Key(0x1000 + c.span)
			scan := func() {
				if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
					return tx.Scan(kvmix.Table, from, to, func(k, v []byte) bool { return true })
				}); err != nil {
					t.Fatal(err)
				}
			}
			scan() // warm the pools
			if got := testing.AllocsPerRun(100, scan); got > c.budget {
				t.Fatalf("scan of %d keys over %d shards: %.1f allocs/op, budget %.0f", c.span, c.tshards, got, c.budget)
			}
		})
	}
}

// TestROGetAllocBudget asserts the headline cost claim for the read-only fast
// path: on a quiet database — no read-write transactions, no threat on the
// horizon — a declared read-only Get at Serializable SI allocates exactly what
// a plain-SI Get does. The safe-snapshot check is pure atomic loads and the
// SIREAD acquisition is skipped entirely, so nothing extra may show up here.
func TestROGetAllocBudget(t *testing.T) {
	for _, tshards := range []int{1, 8} {
		t.Run(fmt.Sprintf("tshards=%d", tshards), func(t *testing.T) {
			db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards})
			cfg := kvmix.DefaultConfig()
			if err := kvmix.Load(db, cfg); err != nil {
				t.Fatal(err)
			}
			key := []byte{0, 0, 0x12, 0x34}
			body := func(tx *ssidb.Txn) error {
				_, _, err := tx.Get(kvmix.Table, key)
				return err
			}
			measure := func(name string, run func() error) float64 {
				if err := run(); err != nil { // warm the txn pools
					t.Fatal(err)
				}
				got := testing.AllocsPerRun(200, func() {
					if err := run(); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%s: %.1f allocs/op", name, got)
				return got
			}
			si := measure("SI Get", func() error { return db.Run(ssidb.SnapshotIsolation, body) })
			ro := measure("safe-RO SSI Get", func() error { return db.RunReadOnly(ssidb.SerializableSI, body) })
			if si > 2 {
				t.Fatalf("plain-SI Get: %.1f allocs/op, budget 2", si)
			}
			if ro > si {
				t.Fatalf("safe-RO SSI Get: %.1f allocs/op, want ≤ plain-SI %.1f", ro, si)
			}
			if st := db.StatsSnapshot(); st.ROSafePromotions == 0 || st.ROSIReadSkips == 0 {
				t.Fatalf("RO path not exercised: promotions=%d skips=%d", st.ROSafePromotions, st.ROSIReadSkips)
			}
		})
	}
}
