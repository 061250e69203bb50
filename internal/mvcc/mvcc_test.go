package mvcc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssi/internal/core"
)

type fixture struct {
	m  *core.Manager
	tb *Table
}

func newFixture() *fixture {
	// Four partitions so every test exercises the hash-routed paths; the
	// single-shard behaviour is covered by the oracle comparisons below.
	m := core.NewManager(core.DetectorPrecise)
	f := &fixture{m: m}
	f.tb = NewTable("t", Config{PageMaxKeys: 8, Shards: 4, Horizon: m.OldestActiveSnapshot})
	return f
}

func (f *fixture) commit(t *testing.T, txn *core.Txn) core.TS {
	t.Helper()
	ct, err := f.m.CommitPrepare(txn)
	if err != nil {
		t.Fatal(err)
	}
	f.m.Finish(txn, false)
	return ct
}

func (f *fixture) put(t *testing.T, key, val string) core.TS {
	t.Helper()
	txn := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(txn)
	f.tb.Write(txn, []byte(key), []byte(val), false, nil)
	return f.commit(t, txn)
}

func TestSnapshotVisibility(t *testing.T) {
	f := newFixture()
	f.put(t, "x", "v1")

	reader := f.m.Begin(core.SnapshotIsolation)
	snap := f.m.AssignSnapshot(reader)

	f.put(t, "x", "v2") // committed after reader's snapshot

	res := f.tb.Read(reader, snap, []byte("x"))
	if !res.Found || string(res.Value) != "v1" {
		t.Fatalf("read %q found=%v, want v1", res.Value, res.Found)
	}
	if len(res.NewerWriters) != 1 {
		t.Fatalf("NewerWriters = %d, want 1", len(res.NewerWriters))
	}

	// A fresh snapshot sees v2 and no newer writers.
	r2 := f.m.Begin(core.SnapshotIsolation)
	s2 := f.m.AssignSnapshot(r2)
	res = f.tb.Read(r2, s2, []byte("x"))
	if string(res.Value) != "v2" || len(res.NewerWriters) != 0 {
		t.Fatalf("fresh read = %q, newer=%d", res.Value, len(res.NewerWriters))
	}
}

func TestOwnWritesVisible(t *testing.T) {
	f := newFixture()
	f.put(t, "x", "v1")
	txn := f.m.Begin(core.SnapshotIsolation)
	snap := f.m.AssignSnapshot(txn)
	f.tb.Write(txn, []byte("x"), []byte("mine"), false, nil)
	res := f.tb.Read(txn, snap, []byte("x"))
	if string(res.Value) != "mine" {
		t.Fatalf("own write invisible: %q", res.Value)
	}
	// Another concurrent transaction still sees v1 and no newer committed
	// version, but does see the uncommitted writer as newer.
	other := f.m.Begin(core.SnapshotIsolation)
	so := f.m.AssignSnapshot(other)
	res = f.tb.Read(other, so, []byte("x"))
	if string(res.Value) != "v1" {
		t.Fatalf("concurrent read = %q, want v1", res.Value)
	}
	if len(res.NewerWriters) != 1 || res.NewerWriters[0] != txn {
		t.Fatalf("uncommitted writer not reported: %v", res.NewerWriters)
	}
}

func TestUncommittedInvisible(t *testing.T) {
	f := newFixture()
	w := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(w)
	f.tb.Write(w, []byte("x"), []byte("dirty"), false, nil)

	r := f.m.Begin(core.SnapshotIsolation)
	sr := f.m.AssignSnapshot(r)
	if res := f.tb.Read(r, sr, []byte("x")); res.Found {
		t.Fatalf("dirty read: %q", res.Value)
	}
}

func TestTombstoneVisibility(t *testing.T) {
	f := newFixture()
	f.put(t, "x", "v1")
	del := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(del)
	f.tb.Write(del, []byte("x"), nil, true, nil)

	before := f.m.Begin(core.SnapshotIsolation)
	sb := f.m.AssignSnapshot(before)
	f.commit(t, del)

	// A snapshot taken before the delete still sees v1.
	if res := f.tb.Read(before, sb, []byte("x")); !res.Found || string(res.Value) != "v1" {
		t.Fatalf("pre-delete snapshot read = %v %q", res.Found, res.Value)
	}
	// A snapshot after sees the tombstone: absent, creator attributed.
	after := f.m.Begin(core.SnapshotIsolation)
	sa := f.m.AssignSnapshot(after)
	res := f.tb.Read(after, sa, []byte("x"))
	if res.Found {
		t.Fatal("deleted key visible")
	}
	if res.VisibleCreator != del {
		t.Fatal("tombstone creator not attributed")
	}
}

func TestRollbackRestoresChain(t *testing.T) {
	f := newFixture()
	f.put(t, "x", "v1")
	w := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(w)
	f.tb.Write(w, []byte("x"), []byte("bad"), false, nil)
	f.tb.Write(w, []byte("y"), []byte("new"), false, nil)
	f.tb.Rollback(w, []byte("x"))
	f.tb.Rollback(w, []byte("y"))
	f.m.Abort(w)

	r := f.m.Begin(core.SnapshotIsolation)
	sr := f.m.AssignSnapshot(r)
	if res := f.tb.Read(r, sr, []byte("x")); string(res.Value) != "v1" {
		t.Fatalf("x = %q after rollback", res.Value)
	}
	if res := f.tb.Read(r, sr, []byte("y")); res.Found {
		t.Fatal("rolled-back insert visible")
	}
	if len(f.tb.Read(r, sr, []byte("x")).NewerWriters) != 0 {
		t.Fatal("aborted writer still reported as newer")
	}
}

func TestSecondWriteSameTxnCollapses(t *testing.T) {
	f := newFixture()
	w := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(w)
	f.tb.Write(w, []byte("x"), []byte("a"), false, nil)
	f.tb.Write(w, []byte("x"), []byte("b"), false, nil)
	f.tb.Rollback(w, []byte("x")) // one rollback must remove everything
	f.m.Abort(w)
	if f.tb.NewestCommitTS([]byte("x")) != 0 {
		t.Fatal("chain not empty after rollback of double write")
	}
}

func TestNewestCommitTSForFCW(t *testing.T) {
	f := newFixture()
	ct1 := f.put(t, "x", "v1")
	if got := f.tb.NewestCommitTS([]byte("x")); got != ct1 {
		t.Fatalf("NewestCommitTS = %d, want %d", got, ct1)
	}
	// An uncommitted head does not change the committed watermark.
	w := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(w)
	f.tb.Write(w, []byte("x"), []byte("pending"), false, nil)
	if got := f.tb.NewestCommitTS([]byte("x")); got != ct1 {
		t.Fatalf("NewestCommitTS with pending head = %d, want %d", got, ct1)
	}
	ct2 := f.commit(t, w)
	if got := f.tb.NewestCommitTS([]byte("x")); got != ct2 {
		t.Fatalf("NewestCommitTS = %d, want %d", got, ct2)
	}
}

func TestReadLatest(t *testing.T) {
	f := newFixture()
	f.put(t, "x", "v1")
	reader := f.m.Begin(core.S2PL)
	v, ok, creator := f.tb.ReadLatest(reader, []byte("x"))
	if !ok || string(v) != "v1" || creator == nil {
		t.Fatalf("ReadLatest = %q %v", v, ok)
	}
	if _, ok, _ := f.tb.ReadLatest(reader, []byte("missing")); ok {
		t.Fatal("ReadLatest found missing key")
	}
}

func TestVacuumPrunesChains(t *testing.T) {
	f := newFixture()
	// 40 committed versions with no concurrent readers: a vacuum sweep must
	// cut the chain down to the visible version.
	for i := 0; i < 40; i++ {
		f.put(t, "x", fmt.Sprintf("v%d", i))
	}
	st := f.tb.Vacuum()
	if st.VersionsPruned < 30 {
		t.Fatalf("vacuum pruned %d versions, want most of 39", st.VersionsPruned)
	}
	if n := f.chainLen("x"); n != 1 {
		t.Fatalf("chain kept %d versions after vacuum, want 1", n)
	}
	// Latest value still correct.
	r := f.m.Begin(core.SnapshotIsolation)
	sr := f.m.AssignSnapshot(r)
	if res := f.tb.Read(r, sr, []byte("x")); string(res.Value) != "v39" {
		t.Fatalf("after pruning read %q", res.Value)
	}
}

func (f *fixture) chainLen(key string) int {
	sh := f.tb.shardOf([]byte(key))
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	cv, ok := sh.tree.Get([]byte(key))
	if !ok {
		return 0
	}
	n := 0
	for v := cv.(*chain).head; v != nil; v = v.Older {
		n++
	}
	return n
}

// TestVacuumRespectsOldSnapshot: versions an active snapshot can still read
// must survive a sweep; once the snapshot finishes, they go.
func TestVacuumRespectsOldSnapshot(t *testing.T) {
	f := newFixture()
	f.put(t, "x", "v0")
	reader := f.m.Begin(core.SnapshotIsolation)
	snap := f.m.AssignSnapshot(reader)
	f.put(t, "x", "v1")
	f.put(t, "x", "v2")

	f.tb.Vacuum()
	if res := f.tb.Read(reader, snap, []byte("x")); string(res.Value) != "v0" {
		t.Fatalf("vacuum stole the pinned version: read %q, want v0", res.Value)
	}
	if n := f.chainLen("x"); n < 2 {
		t.Fatalf("pinned chain cut to %d versions", n)
	}

	f.m.Abort(reader)
	st := f.tb.Vacuum()
	if st.VersionsPruned == 0 {
		t.Fatal("nothing pruned after the pinning snapshot finished")
	}
	if n := f.chainLen("x"); n != 1 {
		t.Fatalf("chain kept %d versions after unpinned vacuum, want 1", n)
	}
}

// TestDeadCounterTriggersVacuum: with VacuumEvery=1 every superseding write
// crosses the threshold, so the store vacuums itself without any explicit
// Vacuum call.
func TestDeadCounterTriggersVacuum(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	tb := NewTable("t", Config{PageMaxKeys: 8, Shards: 2, Horizon: m.OldestActiveSnapshot, VacuumEvery: 1})
	put := func(key, val string) {
		txn := m.Begin(core.SnapshotIsolation)
		m.AssignSnapshot(txn)
		tb.Write(txn, []byte(key), []byte(val), false, nil)
		if _, err := m.CommitPrepare(txn); err != nil {
			t.Fatal(err)
		}
		m.Finish(txn, false)
	}
	for i := 0; i < 50; i++ {
		put("hot", fmt.Sprintf("v%d", i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for tb.Stats().VacuumRuns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("write-path dead counter never triggered a vacuum")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMergedScanMatchesSingleShardOracle: a partitioned table's ordered scan
// must produce exactly the sequence a 1-shard table produces for the same
// data — same keys, same order, same visibility. The keyspace is wider than
// scanChunk so the lock-coupled merge crosses round boundaries (latch drops
// and iterator revalidation) mid-comparison.
func TestMergedScanMatchesSingleShardOracle(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	sharded := NewTable("t", Config{PageMaxKeys: 4, Shards: 8, Horizon: m.OldestActiveSnapshot})
	oracle := NewTable("t", Config{PageMaxKeys: 4, Shards: 1, Horizon: m.OldestActiveSnapshot})
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2*3*scanChunk; i++ {
		key := []byte(fmt.Sprintf("k%04d", r.Intn(3*scanChunk)))
		val := []byte(fmt.Sprintf("v%d", i))
		tomb := r.Intn(8) == 0
		txn := m.Begin(core.SnapshotIsolation)
		m.AssignSnapshot(txn)
		sharded.Write(txn, key, val, tomb, nil)
		oracle.Write(txn, key, val, tomb, nil)
		if _, err := m.CommitPrepare(txn); err != nil {
			t.Fatal(err)
		}
		m.Finish(txn, false)
	}
	reader := m.Begin(core.SnapshotIsolation)
	snap := m.AssignSnapshot(reader)
	collect := func(tb *Table, from []byte) []string {
		var out []string
		tb.Scan(reader, snap, from, func(it ScanItem) bool {
			out = append(out, fmt.Sprintf("%s=%s/%v/%v", it.Key, it.Value, it.Found, it.VisibleCreator != nil))
			return true
		})
		return out
	}
	for _, from := range []string{"", "k0050", "k0100x", "zzz"} {
		got, want := collect(sharded, []byte(from)), collect(oracle, []byte(from))
		if len(got) != len(want) {
			t.Fatalf("from %q: sharded %d items, oracle %d", from, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("from %q item %d: sharded %q, oracle %q", from, i, got[i], want[i])
			}
		}
	}
	// Cross-partition successor agrees with the oracle everywhere.
	for i := 0; i < 3*scanChunk; i++ {
		key := []byte(fmt.Sprintf("k%04d", i))
		gs, gok := sharded.Successor(key)
		ws, wok := oracle.Successor(key)
		if gok != wok || (gok && string(gs) != string(ws)) {
			t.Fatalf("Successor(%s): sharded %q/%v, oracle %q/%v", key, gs, gok, ws, wok)
		}
	}
}

// TestPartitionedStoreRaceStress hammers one partitioned table with
// concurrent point writes, structural inserts (with gap callbacks),
// tombstones, merged scans and vacuum sweeps; run under -race it checks the
// latch discipline (single-shard point ops, ordered all-shard scans and
// structural inserts, chunked vacuum) for data races and deadlocks.
func TestPartitionedStoreRaceStress(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	tb := NewTable("t", Config{PageMaxKeys: 4, Shards: 4, Horizon: m.OldestActiveSnapshot, VacuumEvery: 16})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < 400; i++ {
				txn := m.Begin(core.SnapshotIsolation)
				snap := m.AssignSnapshot(txn)
				key := []byte(fmt.Sprintf("k%03d", r.Intn(64)))
				switch r.Intn(4) {
				case 0: // structural-style write with gap callback
					tb.Write(txn, key, []byte{byte(i)}, false, func(succ []byte, hasSucc bool) {})
				case 1: // tombstone
					tb.Write(txn, key, nil, true, nil)
				case 2: // merged scan
					tb.Scan(txn, snap, nil, func(it ScanItem) bool { return true })
				default:
					tb.Read(txn, snap, key)
				}
				if r.Intn(2) == 0 {
					if _, err := m.CommitPrepare(txn); err == nil {
						m.Finish(txn, false)
					}
				} else {
					tb.Rollback(txn, key)
					m.Abort(txn)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				tb.Vacuum()
			}
		}
	}()
	wg.Wait()
	close(done)
	reader := m.Begin(core.SnapshotIsolation)
	snap := m.AssignSnapshot(reader)
	var prev []byte
	tb.Scan(reader, snap, nil, func(it ScanItem) bool {
		if prev != nil && string(prev) >= string(it.Key) {
			t.Fatalf("merged scan out of order: %q then %q", prev, it.Key)
		}
		prev = append(prev[:0], it.Key...)
		return true
	})
}

func TestScanVisitsInvisibleKeys(t *testing.T) {
	f := newFixture()
	f.put(t, "a", "1")
	reader := f.m.Begin(core.SnapshotIsolation)
	snap := f.m.AssignSnapshot(reader)
	f.put(t, "b", "2") // invisible to reader

	var keys []string
	var newer int
	f.tb.Scan(reader, snap, nil, func(it ScanItem) bool {
		keys = append(keys, string(it.Key))
		newer += len(it.NewerWriters)
		return true
	})
	if len(keys) != 2 {
		t.Fatalf("scan visited %v, want both keys (phantom detection needs invisible ones)", keys)
	}
	if newer != 1 {
		t.Fatalf("scan reported %d newer writers, want 1", newer)
	}
}

func TestPageStamps(t *testing.T) {
	f := newFixture()
	ps := NewPageStamps(nil)
	w1 := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(w1)
	ps.AddWriter(7, w1)
	ps.AddWriter(7, w1) // idempotent

	if ps.NewestCommitTS(7) != 0 {
		t.Fatal("uncommitted writer counted in NewestCommitTS")
	}
	reader := f.m.Begin(core.SnapshotIsolation)
	snap := f.m.AssignSnapshot(reader)
	ct := f.commit(t, w1)
	if got := ps.NewestCommitTS(7); got != ct {
		t.Fatalf("NewestCommitTS = %d, want %d", got, ct)
	}
	nw := ps.NewerWriters(7, snap)
	if len(nw) != 1 || nw[0] != w1 {
		t.Fatalf("NewerWriters = %v", nw)
	}
	if len(ps.NewerWriters(7, ct+1)) != 0 {
		t.Fatal("writer older than snapshot reported")
	}
	// Pruning folds old commits into the floor but keeps FCW exact.
	ps.Prune(ct + 1)
	if got := ps.NewestCommitTS(7); got != ct {
		t.Fatalf("NewestCommitTS after prune = %d, want %d", got, ct)
	}
	if len(ps.NewerWriters(7, snap)) != 0 {
		t.Fatal("pruned writer still listed")
	}
}

func TestPageStampsDropAborted(t *testing.T) {
	f := newFixture()
	ps := NewPageStamps(nil)
	w := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(w)
	ps.AddWriter(3, w)
	f.m.Abort(w)
	ps.Prune(1)
	if got := ps.NewestCommitTS(3); got != 0 {
		t.Fatalf("aborted writer left a stamp: %d", got)
	}
}

// TestScanWriterProgress is the writer-stall regression test: a long scan
// with an artificially slow consumer (the callback sleeps, so latch holds
// are dominated by the scan, exactly the analytic-scan regime) must not
// stall point writers or structural inserters for its whole duration — the
// lock-coupled rounds bound any writer's wait to one round. With the old
// hold-everything scan, every write below waited for the entire scan.
func TestScanWriterProgress(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	tb := NewTable("t", Config{PageMaxKeys: 16, Shards: 4, Horizon: m.OldestActiveSnapshot})
	const keys = 16 * scanChunk // 16 lock-coupled rounds per full scan
	put := func(key []byte, val string, structural bool) time.Duration {
		txn := m.Begin(core.SnapshotIsolation)
		m.AssignSnapshot(txn)
		start := time.Now()
		var onInsert func([]byte, bool)
		if structural {
			onInsert = func([]byte, bool) {}
		}
		tb.Write(txn, key, []byte(val), false, onInsert)
		lat := time.Since(start)
		if _, err := m.CommitPrepare(txn); err != nil {
			t.Error(err)
		}
		m.Finish(txn, false)
		return lat
	}
	for i := 0; i < keys; i++ {
		put([]byte(fmt.Sprintf("k%05d", i)), "v", false)
	}

	reader := m.Begin(core.SnapshotIsolation)
	snap := m.AssignSnapshot(reader)
	var scanDone atomic.Bool
	scanned := 0
	start := time.Now()
	// The flush callback runs once per lock-coupled round, so the gap
	// between two calls is one round as this box actually ran it: the unit
	// the writer-latency bound is stated in.
	var maxRound time.Duration
	go func() {
		defer scanDone.Store(true)
		last := start
		tb.ScanWith(reader, snap, nil, func(it ScanItem) bool {
			scanned++
			if scanned%16 == 0 {
				time.Sleep(time.Millisecond) // throttled consumer
			}
			return true
		}, func(bool) {
			now := time.Now()
			maxRound = max(maxRound, now.Sub(last))
			last = now
		})
	}()

	// Writers are paced latency probes (not throughput hammers, which would
	// just measure single-core scheduler starvation): in-place updates
	// (single-partition latch) and structural inserts (all-partition
	// lockAll) racing the scan on every partition.
	var wg sync.WaitGroup
	var maxLat int64 // nanoseconds, atomically maxed
	var during atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 7))
			for i := 0; !scanDone.Load(); i++ {
				var lat time.Duration
				if i%8 == 0 {
					lat = put([]byte(fmt.Sprintf("n%05d-%d-%d", r.Intn(keys), g, i)), "w", true)
				} else {
					lat = put([]byte(fmt.Sprintf("k%05d", r.Intn(keys))), "w", false)
				}
				if !scanDone.Load() {
					during.Add(1)
				}
				for {
					cur := atomic.LoadInt64(&maxLat)
					if int64(lat) <= cur || atomic.CompareAndSwapInt64(&maxLat, cur, int64(lat)) {
						break
					}
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	scanDur := time.Since(start)
	if scanned < keys {
		t.Fatalf("scan visited %d of %d keys", scanned, keys)
	}
	// The scan slept ≥ 1ms per 16 keys: it reliably spans many rounds.
	if min := time.Duration(keys/16) * time.Millisecond; scanDur < min/2 {
		t.Fatalf("scan finished in %v, expected ≥ %v — throttle broken", scanDur, min/2)
	}
	if n := during.Load(); n < 20 {
		t.Fatalf("only %d writes completed while the scan was in flight — writers stalled for the scan's duration (%v)", n, scanDur)
	}
	// A writer waits at most ~one round (≈ scanChunk/16 sleeps) plus
	// scheduling noise, so the bound is four rounds, measured in this run's
	// longest round rather than wall-clock time: a loaded box stretches the
	// rounds and the writer's wait alike. With the old hold-everything scan
	// the first blocked writer waited essentially the whole scan (16 rounds).
	if got := time.Duration(atomic.LoadInt64(&maxLat)); got > 4*maxRound {
		t.Fatalf("writer stalled %v during a %v scan with rounds of at most %v — not bounded by a round", got, scanDur, maxRound)
	}
	t.Logf("scan %v over %d keys; longest round %v; %d writes in flight; max writer latency %v",
		scanDur, keys, maxRound, during.Load(), time.Duration(atomic.LoadInt64(&maxLat)))
}

// TestVacuumStallRearm is the regression test for the stall re-arm bug: a
// partition whose sweep fails the reclaim check while the watermark is
// pinned must resume sweeping from the write path alone once the watermark
// advances — previously noteDead skipped scheduling while the stalled flag
// was set, so without a (sampled, best-effort) MaybeVacuum delivery the
// garbage was parked indefinitely.
func TestVacuumStallRearm(t *testing.T) {
	var h atomic.Uint64
	h.Store(1) // pinned: nothing ever committed before TS 1
	m := core.NewManager(core.DetectorPrecise)
	tb := NewTable("t", Config{PageMaxKeys: 8, Shards: 1, Horizon: func() core.TS { return h.Load() }, VacuumEvery: 8})
	put := func(i int) {
		txn := m.Begin(core.SnapshotIsolation)
		m.AssignSnapshot(txn)
		tb.Write(txn, []byte("hot"), []byte(fmt.Sprintf("v%d", i)), false, nil)
		if _, err := m.CommitPrepare(txn); err != nil {
			t.Fatal(err)
		}
		m.Finish(txn, false)
	}
	// Strand garbage: cross the trigger while the pinned watermark makes
	// every sweep unproductive.
	for i := 0; i < 24; i++ {
		put(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tb.Stats().VacuumRuns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no sweep ran at all")
		}
		time.Sleep(time.Millisecond)
	}
	if pruned := tb.Stats().VersionsPruned; pruned != 0 {
		t.Fatalf("pinned sweep reclaimed %d versions", pruned)
	}

	// The watermark advances. No MaybeVacuum is ever delivered (no manager
	// hook is wired here): the write path itself must notice and re-trigger.
	h.Store(1 << 62)
	deadline = time.Now().Add(5 * time.Second)
	for i := 100; tb.Stats().VersionsPruned == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("stalled partition never re-armed after the watermark advance")
		}
		put(i)
		time.Sleep(time.Millisecond)
	}
	if n := f2chainLen(t, tb, "hot"); n > 2 {
		// A concurrent put may leave one fresh superseded version; the
		// stranded backlog itself must be gone.
		t.Fatalf("chain still holds %d versions after re-armed sweep", n)
	}
}

func f2chainLen(t *testing.T, tb *Table, key string) int {
	t.Helper()
	sh := tb.shardOf([]byte(key))
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	cv, ok := sh.tree.Get([]byte(key))
	if !ok {
		return 0
	}
	n := 0
	for v := cv.(*chain).head; v != nil; v = v.Older {
		n++
	}
	return n
}

// TestVacuumProportionalToGarbage pins the dirty-list property: a sweep of a
// wide partition with a handful of superseded chains visits only those
// chains, not the whole partition — and the overflow fallback (full walk)
// still reclaims everything and restores proportional sweeping afterwards.
func TestVacuumProportionalToGarbage(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	// VacuumEvery high enough that no write-path sweep fires: the test
	// drives Vacuum synchronously and reads the visit census.
	tb := NewTable("t", Config{PageMaxKeys: 16, Shards: 1, Horizon: m.OldestActiveSnapshot, VacuumEvery: 1 << 20})
	put := func(key string) {
		txn := m.Begin(core.SnapshotIsolation)
		m.AssignSnapshot(txn)
		tb.Write(txn, []byte(key), []byte("v"), false, nil)
		if _, err := m.CommitPrepare(txn); err != nil {
			t.Fatal(err)
		}
		m.Finish(txn, false)
	}
	const wide = 10000
	for i := 0; i < wide; i++ {
		put(fmt.Sprintf("k%05d", i))
	}
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("k%05d", i)) // supersede 10 of 10000
	}
	tb.Vacuum()
	st := tb.Stats()
	if st.VersionsPruned != 10 {
		t.Fatalf("pruned %d versions, want 10", st.VersionsPruned)
	}
	if st.VacuumKeyVisits > 100 {
		t.Fatalf("sweep visited %d chains for 10 superseded keys — proportional to partition width, not to garbage", st.VacuumKeyVisits)
	}

	// Overflow: more distinct dirty chains than the list bound forces one
	// full walk that rebuilds the list.
	tb2 := NewTable("t2", Config{PageMaxKeys: 16, Shards: 1, Horizon: m.OldestActiveSnapshot, VacuumEvery: 4})
	// dirtyCap = clamp(4*4, 64, 65536) = 64.
	if tb2.dirtyCap != 64 {
		t.Fatalf("dirtyCap = %d, want 64", tb2.dirtyCap)
	}
	// Pin the watermark so write-path sweeps cannot drain the list early.
	pin := m.Begin(core.SnapshotIsolation)
	m.AssignSnapshot(pin)
	const keys2 = 300
	for i := 0; i < keys2; i++ {
		put2 := fmt.Sprintf("q%05d", i)
		_ = put2
		txn := m.Begin(core.SnapshotIsolation)
		m.AssignSnapshot(txn)
		tb2.Write(txn, []byte(put2), []byte("v"), false, nil)
		if _, err := m.CommitPrepare(txn); err != nil {
			t.Fatal(err)
		}
		m.Finish(txn, false)
	}
	for i := 0; i < 200; i++ { // 200 distinct dirty chains > 64
		txn := m.Begin(core.SnapshotIsolation)
		m.AssignSnapshot(txn)
		tb2.Write(txn, []byte(fmt.Sprintf("q%05d", i)), []byte("w"), false, nil)
		if _, err := m.CommitPrepare(txn); err != nil {
			t.Fatal(err)
		}
		m.Finish(txn, false)
	}
	sh := tb2.shards[0]
	sh.mu.RLock()
	overflowed := sh.dirtyOverflow
	sh.mu.RUnlock()
	if !overflowed {
		t.Fatal("200 dirty chains did not overflow a 64-entry list")
	}
	m.Abort(pin)
	// Wait out any in-flight stalled sweep, then reclaim synchronously.
	sh.sweepMu.Lock()
	sh.sweepMu.Unlock()
	st2 := tb2.Vacuum()
	if st2.VersionsPruned != 200 {
		t.Fatalf("overflow walk pruned %d versions, want 200", st2.VersionsPruned)
	}
	sh.mu.RLock()
	overflowed = sh.dirtyOverflow
	sh.mu.RUnlock()
	if overflowed {
		t.Fatal("overflow flag not cleared by the full walk")
	}
	// Back to proportional: one more superseded chain, one more visit-ish.
	before := tb2.Stats().VacuumKeyVisits
	txn := m.Begin(core.SnapshotIsolation)
	m.AssignSnapshot(txn)
	tb2.Write(txn, []byte("q00007"), []byte("x"), false, nil)
	if _, err := m.CommitPrepare(txn); err != nil {
		t.Fatal(err)
	}
	m.Finish(txn, false)
	tb2.Vacuum()
	if visits := tb2.Stats().VacuumKeyVisits - before; visits > 16 {
		t.Fatalf("post-overflow sweep visited %d chains for 1 superseded key", visits)
	}
}

// TestPageStampsHotPageBounded: a page written by an unending stream of
// short committed transactions must not accumulate one writer entry per
// transaction — AddWriter folds pre-watermark commits into the maxCommit
// floor once the list passes the inline-prune length.
func TestPageStampsHotPageBounded(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	ps := NewPageStamps(m.OldestActiveSnapshot)
	var lastCT core.TS
	for i := 0; i < 500; i++ {
		w := m.Begin(core.SnapshotIsolation)
		m.AssignSnapshot(w)
		ps.AddWriter(7, w)
		ct, err := m.CommitPrepare(w)
		if err != nil {
			t.Fatal(err)
		}
		m.Finish(w, false)
		lastCT = ct
	}
	ps.mu.Lock()
	n := len(ps.byPage[7].writers)
	ps.mu.Unlock()
	// The prune is amortised (one list scan per stampPruneLen new writers),
	// so between prunes the list may hold up to ~2x the trigger length —
	// bounded either way, where the old behaviour grew one entry per
	// transaction forever.
	if n > 2*stampPruneLen {
		t.Fatalf("hot page kept %d writer entries, want <= %d", n, 2*stampPruneLen)
	}
	// The First-Committer-Wins floor survives the folding exactly.
	if got := ps.NewestCommitTS(7); got != lastCT {
		t.Fatalf("NewestCommitTS after folding = %d, want %d", got, lastCT)
	}
}
