package ssidb

import (
	"errors"
	"fmt"
	"testing"

	"ssi/internal/lock"
)

// TestAccessLockMatrix pins the lock set of every access: for each level
// (SI, SSI, a declared read-only SSI transaction before promotion, a safe
// snapshot, S2PL), both granularities and each operation, it asserts exactly
// which row, gap and page keys the transaction holds afterwards, in which
// mode. The expectations are the access table at the top of txn.go:
//
//   - a read takes the level's read lock (SIREAD, Shared or none) on the
//     row, or on every page of its root-to-leaf path;
//   - a write takes EXCLUSIVE on the row or the leaf, the read lock on the
//     interior pages, and EXCLUSIVE on the whole path when it splits the
//     leaf;
//   - a structural row write (insert, delete) at SSI or S2PL also takes
//     EXCLUSIVE on the gap before the successor key;
//   - a scan takes the read lock on every row and gap in range plus the
//     boundary gap (the supremum when it runs off the end), or on the
//     descent path and every leaf it reads plus the boundary leaf;
//   - a declared read-only transaction's writes fail and take nothing.
func TestAccessLockMatrix(t *testing.T) {
	const (
		S = lock.Shared
		X = lock.Exclusive
		R = lock.SIRead
	)
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }

	// The table holds k00, k02, ..., k30. Loaded in order into 4-key pages,
	// every leaf but the last holds two keys and the last (k24..k30) is
	// full, so inserting k05 fits its leaf and inserting k25 splits.
	open := func(t *testing.T, g Granularity) *DB {
		db := Open(Options{Granularity: g, TableShards: 1, PageMaxKeys: 4, Detector: DetectorPrecise})
		if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
			for i := 0; i <= 30; i += 2 {
				if err := tx.Put("t", key(i), []byte("v")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return db
	}

	levels := []struct {
		name  string
		read  lock.Mode // the lock a read takes
		ro    bool      // declared read-only
		safe  bool      // expected SafeSnapshot after the operation
		begin func(t *testing.T, db *DB) *Txn
	}{
		{"SI", 0, false, false, func(t *testing.T, db *DB) *Txn { return db.Begin(SnapshotIsolation) }},
		{"SSI", R, false, false, func(t *testing.T, db *DB) *Txn { return db.Begin(SerializableSI) }},
		{"SSI-RO", R, true, false, beginUnsafeReadOnly},
		{"SSI-safe", 0, true, true, func(t *testing.T, db *DB) *Txn {
			return db.BeginTx(SerializableSI, TxnOptions{ReadOnly: true, Deferrable: true})
		}},
		{"S2PL", S, false, false, func(t *testing.T, db *DB) *Txn { return db.Begin(S2PL) }},
	}

	type op struct {
		name  string
		write bool
		run   func(tx *Txn) error
		// want adds the expected locks given the level's read lock; it runs
		// before the operation, against the pre-operation tree.
		want func(w *wantLocks, read lock.Mode)
	}
	scan := func(from []byte, keys []int, boundary int) func(w *wantLocks, read lock.Mode) {
		return func(w *wantLocks, read lock.Mode) {
			if w.page {
				for _, pg := range w.tb.data.ScanPathPages(from) {
					w.add(lock.PageKey("t", pg), read)
				}
			}
			for _, i := range keys {
				w.row(key(i), read)
				w.gap(key(i), read)
				w.leaf(key(i), read)
			}
			if boundary < 0 {
				w.supremum(read)
			} else {
				w.gap(key(boundary), read)
				w.leaf(key(boundary), read)
			}
		}
	}
	all := func(k, v []byte) bool { return true }
	ops := []op{
		{"Get", false, func(tx *Txn) error { _, _, err := tx.Get("t", key(6)); return err },
			func(w *wantLocks, read lock.Mode) { w.cover(key(6), read, read) }},
		{"GetForUpdate", true, func(tx *Txn) error { _, _, err := tx.GetForUpdate("t", key(6)); return err },
			func(w *wantLocks, read lock.Mode) { w.cover(key(6), read, X) }},
		{"Put", true, func(tx *Txn) error { return tx.Put("t", key(6), []byte("w")) },
			func(w *wantLocks, read lock.Mode) { w.cover(key(6), read, X) }},
		{"Insert", true, func(tx *Txn) error { return tx.Insert("t", key(5), []byte("w")) },
			func(w *wantLocks, read lock.Mode) { w.structural(key(5), read) }},
		{"InsertSplit", true, func(tx *Txn) error { return tx.Insert("t", key(25), []byte("w")) },
			func(w *wantLocks, read lock.Mode) { w.structural(key(25), read) }},
		{"Delete", true, func(tx *Txn) error { return tx.Delete("t", key(6)) },
			func(w *wantLocks, read lock.Mode) { w.structural(key(6), read) }},
		{"Scan", false, func(tx *Txn) error { return tx.Scan("t", key(4), key(12), all) },
			scan(key(4), []int{4, 6, 8, 10}, 12)},
		{"ScanToEnd", false, func(tx *Txn) error { return tx.Scan("t", key(24), nil, all) },
			scan(key(24), []int{24, 26, 28, 30}, -1)},
		{"ScanLimit", false, func(tx *Txn) error { return tx.ScanLimit("t", key(20), nil, 2, all) },
			scan(key(20), []int{20, 22}, 24)},
	}

	for _, g := range []Granularity{GranularityRow, GranularityPage} {
		gname := map[Granularity]string{GranularityRow: "row", GranularityPage: "page"}[g]
		for _, lv := range levels {
			for _, o := range ops {
				t.Run(gname+"/"+lv.name+"/"+o.name, func(t *testing.T) {
					db := open(t, g)
					w := &wantLocks{tb: db.table("t"), page: g == GranularityPage, set: map[lock.Key]lock.Mode{}}
					if !o.write || !lv.ro {
						o.want(w, lv.read)
					}
					if o.name == "InsertSplit" && g == GranularityPage && !w.tb.data.InsertWillSplit(key(25)) {
						t.Fatal("fixture: inserting k25 no longer splits its leaf")
					}
					if o.name == "Insert" && g == GranularityPage && w.tb.data.InsertWillSplit(key(5)) {
						t.Fatal("fixture: inserting k05 now splits its leaf")
					}
					tx := lv.begin(t, db)
					err := o.run(tx)
					switch {
					case o.write && lv.ro:
						if !errors.Is(err, ErrReadOnly) {
							t.Fatalf("write on a read-only transaction: %v, want ErrReadOnly", err)
						}
					case err != nil:
						t.Fatal(err)
					}
					if tx.SafeSnapshot() != lv.safe {
						t.Fatalf("SafeSnapshot = %v, want %v", tx.SafeSnapshot(), lv.safe)
					}
					w.check(t, db, tx)
					tx.Abort()
				})
			}
		}
	}
}

// beginUnsafeReadOnly returns a declared read-only SSI transaction whose
// snapshot stays unsafe for the rest of the test: a read-write transaction
// with an older snapshot is still active and another read-write transaction
// committed between the two snapshots (both on a table the matrix does not
// inspect), so the reader keeps taking SIREAD locks.
func beginUnsafeReadOnly(t *testing.T, db *DB) *Txn {
	t.Helper()
	elder := db.Begin(SerializableSI)
	if _, _, err := elder.Get("side", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := db.Run(SerializableSI, func(tx *Txn) error { return tx.Put("side", []byte("b"), []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { elder.Abort() })
	return db.BeginReadOnly(SerializableSI)
}

// wantLocks is the expected lock set of one matrix cell.
type wantLocks struct {
	tb   *table
	page bool
	set  map[lock.Key]lock.Mode
}

func (w *wantLocks) add(k lock.Key, m lock.Mode) {
	if m != 0 {
		w.set[k] |= m
	}
}

// row and gap are row-granularity locks; page mode takes none.
func (w *wantLocks) row(k []byte, m lock.Mode) {
	if !w.page {
		w.add(lock.RowKey("t", k), m)
	}
}

func (w *wantLocks) gap(k []byte, m lock.Mode) {
	if !w.page {
		w.add(lock.GapKey("t", k), m)
	}
}

// leaf is the page-granularity lock on key's leaf; row mode takes none.
func (w *wantLocks) leaf(k []byte, m lock.Mode) {
	if w.page {
		w.add(lock.PageKey("t", w.tb.data.LeafPage(k)), m)
	}
}

func (w *wantLocks) supremum(m lock.Mode) {
	if !w.page {
		w.add(lock.SupremumGapKey("t"), m)
	}
}

// cover is a point access: the row in leaf mode, or the root-to-leaf path
// with interior pages in interior mode and the leaf in leaf mode.
func (w *wantLocks) cover(k []byte, interior, leaf lock.Mode) {
	w.row(k, leaf)
	if !w.page {
		return
	}
	path := w.tb.data.PathPages(k)
	for i, pg := range path {
		m := interior
		if i == len(path)-1 {
			m = leaf
		}
		w.add(lock.PageKey("t", pg), m)
	}
}

// structural is an insert or delete: the gap before the successor key at
// the gap-locking levels, then the write cover — the whole path exclusive
// when the leaf will split.
func (w *wantLocks) structural(k []byte, read lock.Mode) {
	if read != 0 {
		if succ, ok := w.tb.data.Successor(k); ok {
			w.gap(succ, lock.Exclusive)
		} else {
			w.supremum(lock.Exclusive)
		}
	}
	interior := read
	if w.page && w.tb.data.InsertWillSplit(k) {
		interior = lock.Exclusive
	}
	w.cover(k, interior, lock.Exclusive)
}

// check compares tx's holdings on the row and gap keys k00..k30 (the table
// plus the keys the operations insert), the supremum gap and every page
// against the expected set, mode by mode.
func (w *wantLocks) check(t *testing.T, db *DB, tx *Txn) {
	t.Helper()
	var keys []lock.Key
	for i := 0; i <= 30; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		keys = append(keys, lock.RowKey("t", k), lock.GapKey("t", k))
	}
	keys = append(keys, lock.SupremumGapKey("t"))
	for pg := uint32(0); pg < 64; pg++ {
		keys = append(keys, lock.PageKey("t", pg))
	}
	for k, m := range w.set {
		found := false
		for _, u := range keys {
			found = found || u == k
		}
		if !found {
			t.Fatalf("expected lock %v (%v) lies outside the checked key space", k, m)
		}
	}
	for _, k := range keys {
		for _, m := range []lock.Mode{lock.Shared, lock.Exclusive, lock.SIRead} {
			want := w.set[k]&m != 0
			if got := db.locks.Holds(tx.t, k, m); got != want {
				t.Errorf("%v %v: held %v, want %v", k, m, got, want)
			}
		}
	}
}
