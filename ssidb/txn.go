package ssidb

// Every operation of a transaction follows from its access record, fixed at
// begin. The record's core is the lock a read takes; the rest of the
// protocol follows from that mode and the level, the way Berenson et al.
// define each isolation level by the locks its reads and writes take:
//
//	level          read lock  reads see  rw-edges  FCW  insert/delete (row)
//	SI             none       snapshot   -         yes  -
//	SSI            SIREAD     snapshot   marked    yes  EXCLUSIVE gap lock
//	safe snapshot  none       snapshot   -         -    (read-only)
//	S2PL           Shared     latest     -         -    EXCLUSIVE gap lock
//
// Writes take EXCLUSIVE at every level; a transaction declared read-only
// never reaches the write path. SSI marks an rw-edge from a read to each
// concurrent newer writer or EXCLUSIVE holder (Figure 3.4) and from each
// SIREAD holder to a write (Figure 3.5). A scan takes the read lock on every
// row it visits and on the gap before it, plus the gap at its boundary (the
// supremum when it runs off the table's end).
//
// Page granularity covers pages instead of rows and gaps: a point access
// locks its root-to-leaf path, the interior pages in the read mode and the
// leaf in the access's own mode, and a write that splits the leaf locks the
// whole path EXCLUSIVE; a scan locks its descent paths and every leaf it
// reads. First-Committer-Wins then compares page stamps.
//
// A declared read-only SSI transaction begins with SIREAD and drops it once,
// when its snapshot is found safe (readLock); a deferrable begin starts safe.

import (
	"bytes"
	"errors"
	"slices"

	"ssi/internal/core"
	"ssi/internal/lock"
	"ssi/internal/mvcc"
)

// Txn is one transaction. A Txn is intended for use by a single goroutine.
// After any abort-class error the transaction has been rolled back and every
// further operation returns ErrTxnDone.
type Txn struct {
	db     *DB
	t      *core.Txn
	acc    access
	writes []writeRec
	done   bool

	// redo accumulates this transaction's redo record (one encoded entry
	// per write, values copied at write time so later caller mutation of
	// the value slice cannot corrupt the log). Empty when the database has
	// no WAL.
	redo []byte

	// rivals and lockKeys are per-transaction scratch buffers for the
	// SIREAD/exclusive lock paths: lock.AcquireInto and
	// AcquireSIReadBatchInto append conflicting holders into rivals, and
	// scans assemble their SIREAD key set in lockKeys, so the steady state
	// of a transaction's reads performs no per-operation slice allocation.
	// Each use empties the buffer first and finishes consuming it before
	// the next operation reuses it.
	rivals   []*core.Txn
	lockKeys []lock.Key

	// ro marks a transaction declared read-only at begin; writes on it fail
	// with ErrReadOnly.
	ro bool

	// prog, when non-nil, marks a program transaction (BeginProgram): every
	// access is checked against the program's declared table footprint, and
	// reads of promoted tables perform the §2.6.2 identity write. The tokens
	// are the transaction's shares of the DB's SI-program / ad-hoc drain
	// counters, released exactly once when the transaction finishes.
	prog        *registeredProgram
	progSIToken bool
	adhocToken  bool
}

// access is a transaction's access record (see the table above).
type access struct {
	read lock.Mode // lock.SIRead (SSI), lock.Shared (S2PL), 0 (SI, safe snapshot)
	safe bool      // a safe snapshot: serializable without SIREAD locks
	page bool      // GranularityPage
}

// access builds the record for a transaction beginning at iso; safe starts
// a declared read-only SSI transaction on a snapshot already found safe.
func (db *DB) access(iso Isolation, safe bool) access {
	a := access{safe: safe, page: db.opts.Granularity == GranularityPage}
	switch {
	case safe:
	case iso == SerializableSI:
		a.read = lock.SIRead
	case iso == S2PL:
		a.read = lock.Shared
	}
	return a
}

type writeRec struct {
	tb  *table
	key string
}

// ID returns the transaction identifier.
func (tx *Txn) ID() uint64 { return tx.t.ID() }

// Isolation returns the level the transaction runs at.
func (tx *Txn) Isolation() Isolation { return tx.t.Isolation() }

// Snapshot returns the read timestamp, or 0 if no read has happened yet.
func (tx *Txn) Snapshot() uint64 { return tx.t.Snapshot() }

// ReadOnly reports whether the transaction was declared read-only at begin.
func (tx *Txn) ReadOnly() bool { return tx.ro }

// SafeSnapshot reports whether the transaction has been promoted to a safe
// snapshot (it reads SIREAD-free at plain-SI cost while remaining
// serializable). Deferred begins start promoted; other declared read-only
// SerializableSI transactions promote mid-flight when their snapshot turns
// safe.
func (tx *Txn) SafeSnapshot() bool { return tx.acc.safe }

// readLock returns the lock the next read takes. It is also where a
// declared read-only SSI transaction is promoted: once its snapshot is safe
// — a verdict that stays sound for the holder, since no read-write
// transaction can commit a structure into the snapshot's past once none
// could at promotion time — the record drops SIREAD for good, so the steady
// state is one field load. The snapshot must already be assigned.
func (tx *Txn) readLock() lock.Mode {
	if tx.ro && tx.acc.read == lock.SIRead && tx.db.mgr.SnapshotSafe(tx.t) {
		tx.acc.read, tx.acc.safe = 0, true
		tx.db.roPromotions.Add(1)
	}
	return tx.acc.read
}

// pre guards every operation: it rejects finished transactions and applies
// the abort-early optimisation of thesis §3.7.1 (an unsafe pivot aborts at
// its next operation rather than at commit; the probe is a status check for
// levels that track no conflicts).
func (tx *Txn) pre() error {
	if tx.done {
		return ErrTxnDone
	}
	if err := tx.db.mgr.AbortEarly(tx.t); err != nil {
		if errors.Is(err, ErrTxnDone) {
			return err
		}
		return tx.fail(err)
	}
	return nil
}

// fail rolls the transaction back and passes err through.
func (tx *Txn) fail(err error) error {
	tx.cleanupAbort()
	return err
}

// cleanupAbort rolls back all writes, releases locks, retires the record.
func (tx *Txn) cleanupAbort() {
	if tx.done {
		return
	}
	tx.done = true
	for i := len(tx.writes) - 1; i >= 0; i-- {
		w := tx.writes[i]
		w.tb.data.Rollback(tx.t, []byte(w.key))
	}
	cleaned := tx.db.mgr.Abort(tx.t)
	tx.db.locks.ReleaseAll(tx.t)
	tx.db.afterCleanup(cleaned)
	tx.releaseProgTokens()
	if r := tx.db.opts.Recorder; r != nil {
		r.RecAbort(tx.t.ID())
	}
}

// releaseProgTokens returns the transaction's shares of the robustness
// subsystem's drain counters. Idempotent; called on every finish path.
func (tx *Txn) releaseProgTokens() {
	if tx.progSIToken {
		tx.progSIToken = false
		tx.db.siProgActive.Add(-1)
	}
	if tx.adhocToken {
		tx.adhocToken = false
		tx.db.adhocActive.Add(-1)
	}
}

// Abort rolls the transaction back. Aborting a finished transaction is a
// no-op. The returned error is always nil; it exists for interface symmetry.
func (tx *Txn) Abort() error {
	tx.cleanupAbort()
	return nil
}

// Commit commits the transaction: the dangerous-structure check and commit
// timestamp assignment happen atomically (thesis Figures 3.2/3.10), the
// redo record is appended to the WAL inside the same commit-serialization
// section (so log order equals commit order), the record is group-flushed,
// and blocking locks are released only after the batch's fsync returns (the
// ordering fix of thesis §4.4 — no other transaction may read this one's
// writes until they are durable). The transaction record is suspended if it
// must remain visible to future conflict detection (§3.3).
func (tx *Txn) Commit() error {
	if tx.done {
		return ErrTxnDone
	}
	logged := tx.shouldLog()
	if logged {
		// The commit hook, running under tsMu inside CommitPrepare, appends
		// the record and stores its LSN back into this slot.
		tx.t.SetCommitState(&commitState{redo: tx.redo})
	}
	ct, err := tx.db.mgr.CommitPrepare(tx.t)
	if err != nil {
		if errors.Is(err, ErrUnsafe) {
			tx.cleanupAbort()
		}
		tx.releaseProgTokens()
		return err
	}
	var walErr error
	if logged {
		cs := tx.t.CommitState().(*commitState)
		if cs.err != nil {
			// The append itself was refused (closed log, timestamp
			// regression): no record was queued, so there is nothing to
			// wait for and the commit is not durable.
			walErr = cs.err
		} else {
			// The fsync wait happens outside every engine lock. On error the
			// commit is already published in memory but its durability is
			// unknown; the log error is sticky and is reported to this caller
			// and every subsequent durable commit.
			walErr = tx.db.log.WaitDurable(cs.lsn)
		}
	}
	tx.db.locks.ReleaseBlocking(tx.t)
	keep := tx.t.Isolation().TracksConflicts() &&
		(tx.db.locks.HoldsSIRead(tx.t) || tx.db.mgr.HasOutConflict(tx.t))
	cleaned := tx.db.mgr.Finish(tx.t, keep)
	tx.done = true
	tx.db.afterCleanup(cleaned)
	tx.releaseProgTokens()
	if r := tx.db.opts.Recorder; r != nil {
		r.RecCommit(tx.t.ID(), ct)
	}
	return walErr
}

// snapshot returns the transaction's read timestamp, assigning it now if
// this is the first need for one (deferred snapshot, thesis §4.5).
func (tx *Txn) snapshot() core.TS {
	return tx.db.mgr.AssignSnapshot(tx.t)
}

// markAsReader records rw-edges from this transaction to each concurrent
// writer (read path, Figure 3.4). Writers may be active lock holders or the
// committed creators of versions newer than the one read.
func (tx *Txn) markAsReader(writers []*core.Txn) error {
	for _, w := range writers {
		if !tx.t.ConcurrentWith(w) {
			continue
		}
		if err := tx.db.mgr.MarkConflict(tx.t, w, tx.t); err != nil {
			return err
		}
	}
	return nil
}

// markAsWriter records rw-edges from each concurrent reader (an SIREAD
// holder, possibly already committed and suspended) to this transaction
// (write path, Figure 3.5 — including the overlap filter).
func (tx *Txn) markAsWriter(readers []*core.Txn) error {
	for _, r := range readers {
		if !tx.t.ConcurrentWith(r) {
			continue
		}
		if err := tx.db.mgr.MarkConflict(r, tx.t, tx.t); err != nil {
			return err
		}
	}
	return nil
}

// recRead reports one key read to the recorder.
func (tx *Txn) recRead(tb *table, key []byte, creator *core.Txn, readTS core.TS) {
	r := tx.db.opts.Recorder
	if r == nil {
		return
	}
	var saw uint64
	if creator != nil {
		saw = creator.ID()
	}
	r.RecRead(tx.t.ID(), tb.name, string(key), saw, readTS)
}

// ---------------------------------------------------------------------------
// Locks

// acquire takes mode on k. The rivals of a SIREAD lock, EXCLUSIVE holders,
// are marked at once (Figure 3.4). The rivals of an EXCLUSIVE lock, SIREAD
// holders, are appended to buf for the caller to mark (Figure 3.5). Shared
// locks have no rivals. buf's backing array, grown or not, becomes the
// transaction's rivals scratch buffer.
func (tx *Txn) acquire(k lock.Key, mode lock.Mode, buf []*core.Txn) ([]*core.Txn, error) {
	n := len(buf)
	buf, err := tx.db.locks.AcquireInto(tx.t, k, mode, buf)
	tx.rivals = buf[:0]
	if err != nil || mode != lock.SIRead {
		return buf, err
	}
	err = tx.markAsReader(buf[n:])
	return buf[:n], err
}

// lockCover locks what covers key for an access that reads in mode read
// and writes in mode write (0 for a read): the row, in the write mode if
// any; or the root-to-leaf page path, interior pages in the read mode and
// the leaf in the write mode if any. A structural write that will split the
// leaf takes the whole path EXCLUSIVE and stamps the interior pages the
// split rewrites, so page-level FCW and newer-version checks see it (the
// root-page conflicts of §6.1.5). The path is re-validated after
// acquisition, since a concurrent split can move the key; locks taken under
// a stale plan are kept. It returns the EXCLUSIVE rivals and the leaf.
func (tx *Txn) lockCover(tb *table, key []byte, read, write lock.Mode, structural bool) (rivals []*core.Txn, leaf uint32, err error) {
	leafMode := write
	if write == 0 {
		leafMode = read
	}
	if leafMode == 0 {
		return nil, 0, nil
	}
	if !tx.acc.page {
		rivals, err = tx.acquire(lock.RowKey(tb.name, key), leafMode, tx.rivals[:0])
		return rivals, 0, err
	}
	rivals = tx.rivals[:0]
	for {
		path := tb.data.PathPages(key)
		split := structural && tb.data.InsertWillSplit(key)
		for i, pg := range path {
			mode := read
			if split {
				mode = lock.Exclusive
			} else if i == len(path)-1 {
				mode = leafMode
			}
			if mode == 0 {
				continue
			}
			if rivals, err = tx.acquire(lock.PageKey(tb.name, pg), mode, rivals); err != nil {
				return rivals, 0, err
			}
			if split && i < len(path)-1 {
				tb.data.AddPageWriter(pg, tx.t)
			}
		}
		if slices.Equal(path, tb.data.PathPages(key)) && split == (structural && tb.data.InsertWillSplit(key)) {
			return rivals, path[len(path)-1], nil
		}
	}
}

// gapKey is the lock on the gap before succ, or on the supremum gap when
// there is no successor.
func gapKey(table string, succ []byte, ok bool) lock.Key {
	if ok {
		return lock.GapKey(table, succ)
	}
	return lock.SupremumGapKey(table)
}

// gapLock is the writer side of the next-key protocol (Figures 3.6/3.7): an
// insert or delete takes EXCLUSIVE on the gap before key's successor,
// retrying until the successor is stable. At SSI the gap's SIREAD holders —
// concurrent predicate readers — are marked as rw-conflicts.
func (tx *Txn) gapLock(tb *table, key []byte) error {
	for {
		succ, ok := tb.data.Successor(key)
		rivals, err := tx.acquire(gapKey(tb.name, succ, ok), lock.Exclusive, tx.rivals[:0])
		if err != nil {
			return err
		}
		if tx.acc.read == lock.SIRead {
			if err := tx.markAsWriter(rivals); err != nil {
				return err
			}
		}
		succ2, ok2 := tb.data.Successor(key)
		if ok == ok2 && (!ok || bytes.Equal(succ, succ2)) {
			return nil
		}
	}
}

// writeLockAndCheck is the one write-lock step. It takes the write cover
// of key; then, for snapshot readers, assigns the snapshot — only now, so a
// first statement that writes never fails First-Committer-Wins (deferred
// snapshot, §4.5) — marks the SIREAD holders among the rivals at SSI, and
// applies First-Committer-Wins, per page in page mode. S2PL reads the
// latest version under its locks and has no snapshot to check. On failure
// the transaction is aborted.
func (tx *Txn) writeLockAndCheck(tb *table, key []byte, structural bool) (core.TS, error) {
	rivals, leaf, err := tx.lockCover(tb, key, tx.acc.read, lock.Exclusive, structural)
	if err != nil {
		return 0, tx.fail(err)
	}
	if tx.acc.read == lock.Shared {
		return 0, nil
	}
	snap := tx.snapshot()
	if tx.acc.read == lock.SIRead {
		if err := tx.markAsWriter(rivals); err != nil {
			return 0, tx.fail(err)
		}
	}
	var newest core.TS
	if tx.acc.page {
		newest = tb.data.PageNewestCommitTS(leaf)
	} else {
		newest = tb.data.NewestCommitTS(key)
	}
	if newest > snap {
		return 0, tx.fail(ErrWriteConflict)
	}
	return snap, nil
}

// ---------------------------------------------------------------------------
// Point reads

// Get reads key from table. Under SI and SerializableSI it reads from the
// transaction's snapshot; under S2PL it shared-locks and reads the latest
// committed version. found is false if the key is absent (or deleted) in the
// visible state.
func (tx *Txn) Get(tableName string, key []byte) (val []byte, found bool, err error) {
	if err := tx.pre(); err != nil {
		return nil, false, err
	}
	if err := tx.progReadCheck(tableName); err != nil {
		return nil, false, err
	}
	tb := tx.db.table(tableName)
	if tx.acc.read == lock.Shared {
		if _, _, err := tx.lockCover(tb, key, lock.Shared, 0, false); err != nil {
			return nil, false, tx.fail(err)
		}
		return tx.readLatest(tb, key)
	}
	snap := tx.snapshot()
	mode := tx.readLock()
	if _, _, err := tx.lockCover(tb, key, mode, 0, false); err != nil {
		return nil, false, tx.fail(err)
	}
	res := tb.data.Read(tx.t, snap, key)
	if mode == lock.SIRead {
		// Page stamps are read only now that the page's SIREAD lock is held:
		// a writer of the page either was a lock rival or already stamped.
		writers := res.NewerWriters
		if tx.acc.page {
			writers = tb.data.PageNewerWriters(tb.data.LeafPage(key), snap)
		}
		if err := tx.markAsReader(writers); err != nil {
			return nil, false, tx.fail(err)
		}
	} else if tx.acc.safe {
		tx.db.roSIReadSkips.Add(1)
	}
	tx.recRead(tb, key, res.VisibleCreator, snap)
	if tx.prog != nil && tx.prog.promoted[tableName] && res.Found {
		// Runtime half of the Promote remedy (§2.6.2): re-write the value
		// just read, so a concurrent writer of this row collides under
		// First-Committer-Wins — the vulnerable rw edge becomes ww.
		if err := tx.write(tableName, key, append([]byte(nil), res.Value...), false, false); err != nil {
			return nil, false, err
		}
	}
	return res.Value, res.Found, nil
}

// readLatest reads the latest committed version of key (or this
// transaction's own) under a lock already held on it.
func (tx *Txn) readLatest(tb *table, key []byte) ([]byte, bool, error) {
	readTS := tx.db.mgr.Now()
	val, found, creator := tb.data.ReadLatest(tx.t, key)
	tx.recRead(tb, key, creator, readTS)
	return val, found, nil
}

// GetForUpdate reads key with an exclusive lock, like SELECT ... FOR UPDATE.
// Under SI/SerializableSI it applies First-Committer-Wins after acquiring
// the lock and then reads the latest committed version; combined with the
// deferred snapshot this means a transaction whose first statement is a
// locked read never aborts under FCW (thesis §4.5).
func (tx *Txn) GetForUpdate(tableName string, key []byte) (val []byte, found bool, err error) {
	if err := tx.pre(); err != nil {
		return nil, false, err
	}
	if tx.ro {
		// A locked read takes exclusive locks and participates in
		// First-Committer-Wins as a writer would; read-only transactions
		// must use Get.
		return nil, false, ErrReadOnly
	}
	// A locked read is both a read and a write intent: the footprint must
	// declare the table in both directions.
	if err := tx.progReadCheck(tableName); err != nil {
		return nil, false, err
	}
	if err := tx.progWriteCheck(tableName); err != nil {
		return nil, false, err
	}
	tb := tx.db.table(tableName)
	if _, err := tx.writeLockAndCheck(tb, key, false); err != nil {
		return nil, false, err
	}
	return tx.readLatest(tb, key)
}

// ---------------------------------------------------------------------------
// Writes

// Put writes key=val. If the key has never existed, Put follows the insert
// protocol (gap locking) so that phantom detection covers upserts too.
func (tx *Txn) Put(tableName string, key, val []byte) error {
	return tx.write(tableName, key, val, false, false)
}

// Insert writes a new key, failing with ErrKeyExists (without aborting) if a
// live version of the key is already visible.
func (tx *Txn) Insert(tableName string, key, val []byte) error {
	return tx.write(tableName, key, val, false, true)
}

// Delete removes key by installing a tombstone version. Deleting an absent
// key is a no-op that still takes the insert-protocol locks.
func (tx *Txn) Delete(tableName string, key []byte) error {
	return tx.write(tableName, key, nil, true, false)
}

func (tx *Txn) write(tableName string, key, val []byte, tombstone, mustNotExist bool) error {
	if err := tx.pre(); err != nil {
		return err
	}
	if tx.ro {
		// Statement-level rejection, like ErrKeyExists: the transaction
		// stays usable for reads and may still commit. The core relies on
		// this gate — a declared read-only transaction must never reach the
		// write-lock or version-install paths.
		return ErrReadOnly
	}
	if err := tx.progWriteCheck(tableName); err != nil {
		return err
	}
	tb := tx.db.table(tableName)
	structural := tombstone || mustNotExist || !tb.data.Exists(key)
	// Figure 3.7: at SSI and S2PL, row-mode inserts and deletes lock the gap
	// before the next key, which detects (SSI) or blocks (S2PL) concurrent
	// predicate readers.
	gaps := tx.acc.read != 0 && !tx.acc.page
	if structural && gaps {
		if err := tx.gapLock(tb, key); err != nil {
			return tx.fail(err)
		}
	}
	snap, err := tx.writeLockAndCheck(tb, key, structural)
	if err != nil {
		return err
	}
	if mustNotExist {
		var found bool
		if tx.acc.read == lock.Shared {
			_, found, _ = tb.data.ReadLatest(tx.t, key)
		} else {
			found = tb.data.Read(tx.t, snap, key).Found
		}
		if found {
			return ErrKeyExists
		}
	}

	// On a structural insert, SIREAD gap locks covering the target gap are
	// inherited onto the new key's gap under the table latch, atomically
	// with the key becoming visible — otherwise a second insert into the
	// now-split gap would escape the scanners' phantom detection.
	var onInsert func(succ []byte, hasSucc bool)
	if !tx.acc.page {
		onInsert = func(succ []byte, hasSucc bool) {
			tx.db.locks.InheritSIRead(gapKey(tb.name, succ, hasSucc), lock.GapKey(tb.name, key))
		}
	}
	inserted, _, _ := tb.data.Write(tx.t, key, val, tombstone, onInsert)
	tx.writes = append(tx.writes, writeRec{tb: tb, key: string(key)})
	if tx.db.log != nil {
		tx.redo = appendRedoEntry(tx.redo, tb.name, key, val, tombstone)
	}
	if tx.acc.page {
		tb.data.AddPageWriter(tb.data.LeafPage(key), tx.t)
	}
	if inserted && gaps {
		// Re-acquire the gap now that the key is visible: the successor may
		// have changed between planning and insertion, and inherited SIREAD
		// holders on the true gap must be marked as conflicts.
		if err := tx.gapLock(tb, key); err != nil {
			return tx.fail(err)
		}
	}
	if r := tx.db.opts.Recorder; r != nil {
		r.RecWrite(tx.t.ID(), tb.name, string(key), tombstone)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Scans

// Scan visits the live keys in [from, to) in ascending order, calling fn for
// each until fn returns false. A nil `to` scans to the end of the table.
// Key and value slices must not be modified or retained.
//
// Predicate protection follows the isolation level: S2PL takes shared row
// and next-key gap locks (blocking inserts); SerializableSI takes SIREAD row
// and gap locks so concurrent inserts/deletes are detected as rw-conflicts
// (thesis §3.5); SI scans are lock-free and phantom-prone, as the paper
// permits.
func (tx *Txn) Scan(tableName string, from, to []byte, fn func(key, val []byte) bool) error {
	return tx.scan(tableName, from, to, 0, fn)
}

// ScanLimit is Scan bounded to the first limit live keys. The next-key
// protection covers exactly the scanned prefix plus the gap beyond the last
// visited key, which is the correct predicate lock for order-dependent
// queries such as "the minimum key in range" (TPC-C's Delivery picking the
// oldest undelivered order): an insert below the stop point is detected (or
// blocked), inserts beyond it cannot change the result.
func (tx *Txn) ScanLimit(tableName string, from, to []byte, limit int, fn func(key, val []byte) bool) error {
	if limit <= 0 {
		limit = 1
	}
	return tx.scan(tableName, from, to, limit, fn)
}

func (tx *Txn) scan(tableName string, from, to []byte, limit int, fn func(key, val []byte) bool) error {
	if err := tx.pre(); err != nil {
		return err
	}
	if err := tx.progReadCheck(tableName); err != nil {
		return err
	}
	tb := tx.db.table(tableName)
	if from == nil {
		from = []byte{}
	}
	c := collector{tx: tx, tb: tb, to: to, limit: limit, keys: tx.lockKeys[:0], writers: tx.rivals[:0]}
	var readTS core.TS
	var err error
	if tx.acc.read == lock.Shared {
		readTS, err = tx.scanLocked(&c, from)
	} else {
		readTS = tx.snapshot()
		err = tx.scanCoupled(&c, from, readTS)
	}
	// Hand the (possibly grown) scratch buffers back for the next operation.
	tx.rivals, tx.lockKeys = c.writers[:0], c.keys[:0]
	if err != nil {
		return tx.fail(err)
	}

	if r := tx.db.opts.Recorder; r != nil {
		r.RecScan(tx.t.ID(), tb.name, string(from), c.effectiveTo(), readTS)
	}
	// Promoted tables identity-write every row the caller was shown (the
	// scan-shaped half of §2.6.2); keys and values are copied out first —
	// the write path mutates the tree the scan buffers point into.
	promote := tx.prog != nil && tx.prog.promoted[tableName]
	var promoteKeys, promoteVals [][]byte
items:
	for _, chunk := range c.items {
		for _, it := range chunk {
			tx.recRead(tb, it.Key, it.VisibleCreator, readTS)
			if it.Found {
				if promote {
					promoteKeys = append(promoteKeys, append([]byte(nil), it.Key...))
					promoteVals = append(promoteVals, append([]byte(nil), it.Value...))
				}
				if !fn(it.Key, it.Value) {
					break items
				}
			}
		}
	}
	for i, k := range promoteKeys {
		if err := tx.write(tableName, k, promoteVals[i], false, false); err != nil {
			return err
		}
	}
	return nil
}

// scanCoupled is the snapshot scan. At SSI it takes the SIREAD row and gap
// (or page) locks one lock-coupled round at a time: the store's flush
// callback runs while the round's partition latches are still held, so
// every emitted key is protected before any inserter can run — SIREAD
// acquisition never blocks, and inserts need the write latch, so each
// round's slice of the range is protected atomically with being read, and
// inserts between rounds are caught either by the already-installed gap
// locks (behind the frontier) or by the resumed merge itself (ahead of it);
// see mvcc.ScanWith for the full invariant. Conflict marking waits until
// after the scan, because an unsafe verdict aborts the transaction, which
// must not happen latched. SI and safe snapshots run the same scan with
// nothing to lock.
func (tx *Txn) scanCoupled(c *collector, from []byte, snap core.TS) error {
	c.mode, c.snap = tx.readLock(), snap
	if c.mode == 0 {
		c.tb.data.Scan(tx.t, snap, from, c.add)
		if tx.acc.safe {
			// One SIREAD skipped per visited row, plus the gap boundary.
			tx.db.roSIReadSkips.Add(uint64(c.n) + 1)
		}
		return nil
	}
	if tx.acc.page {
		// The descent paths' interior pages (every partition's, since a
		// merged scan descends them all), as Berkeley DB read-locks them.
		// The set is complete only once a recomputed descent shows no page
		// not already held, so a split racing the descent cannot move keys
		// onto a page outside the SIREAD coverage; once a page is held,
		// later splits inherit the coverage onto the new page.
		for {
			for _, pg := range c.tb.data.ScanPathPages(from) {
				c.queuePage(pg)
			}
			if len(c.keys) == 0 {
				break
			}
			c.flush(false)
		}
	}
	c.tb.data.ScanWith(tx.t, snap, from, c.add, c.flush)
	return tx.markAsReader(c.writers)
}

// scanLocked is the S2PL scan. Shared locks can block, so they cannot be
// taken under the partition latches; instead it collects the range, then
// locks what the collection covers, and repeats until a pass collects
// exactly the lock set the previous pass acquired — that pass ran wholly
// under its locks, which closes the collect-then-lock window. Each pass
// reads everything committed by its start (at the clock plus one); the
// returned read timestamp is the final pass's clock.
func (tx *Txn) scanLocked(c *collector, from []byte) (core.TS, error) {
	c.mode = lock.Shared
	var held []lock.Key
	for {
		readTS := tx.db.mgr.Now()
		c.reset(readTS + 1)
		if tx.acc.page {
			for _, pg := range c.tb.data.ScanPathPages(from) {
				c.queuePage(pg)
			}
		}
		c.tb.data.Scan(tx.t, c.snap, from, c.add)
		if !c.bounded && !tx.acc.page {
			c.keys = append(c.keys, lock.SupremumGapKey(c.tb.name))
		}
		if slices.Equal(c.keys, held) {
			return readTS, nil
		}
		for _, k := range c.keys {
			if _, err := tx.db.locks.Acquire(tx.t, k, lock.Shared); err != nil {
				return 0, err
			}
		}
		held = append(held[:0], c.keys...)
	}
}

// collector gathers a scan's items: the keys in [from, to) — including keys
// whose visible state is absent, which still carry conflict information —
// up to limit visible ones. The first key past them is the gap boundary.
// A locking scan (mode set) also queues the lock keys that protect what was
// gathered: each item's row and the gap before it plus the boundary's gap,
// or in page mode each leaf page once, the boundary's included.
type collector struct {
	tx    *Txn
	tb    *table
	to    []byte
	limit int
	mode  lock.Mode // the scan's read lock; 0 queues nothing
	snap  core.TS

	items     [][]mvcc.ScanItem // in chunks; see add
	n         int               // items gathered
	found     int
	lastFound []byte
	bounded   bool // a boundary key ended the scan

	keys     []lock.Key      // lock keys queued since the last flush
	writers  []*core.Txn     // rw-conflict targets, marked after the scan
	pages    map[uint32]bool // page mode: pages queued so far
	newPages []uint32        // page mode: pages whose stamps are unread
}

// add is the store's scan callback.
func (c *collector) add(it mvcc.ScanItem) bool {
	c.bounded = len(c.to) > 0 && bytes.Compare(it.Key, c.to) >= 0 || c.limit > 0 && c.found >= c.limit
	if c.mode != 0 {
		switch {
		case c.tx.acc.page:
			c.queuePage(it.Page)
		case c.bounded:
			c.keys = append(c.keys, lock.GapKey(c.tb.name, it.Key))
		default:
			c.keys = append(c.keys, lock.RowKey(c.tb.name, it.Key), lock.GapKey(c.tb.name, it.Key))
			if c.mode == lock.SIRead {
				c.writers = append(c.writers, it.NewerWriters...)
			}
		}
	}
	if c.bounded {
		return false
	}
	// The store calls add with the round's partition latches held, so it
	// starts a new chunk rather than growing one slice: a growing slice
	// would copy every item gathered so far, and allocate in proportion,
	// while writers wait on the latches.
	if k := len(c.items); k == 0 || len(c.items[k-1]) == cap(c.items[k-1]) {
		c.items = append(c.items, make([]mvcc.ScanItem, 0, 4<<min(2*k, 6)))
	}
	c.items[len(c.items)-1] = append(c.items[len(c.items)-1], it)
	c.n++
	if it.Found {
		c.found++
		c.lastFound = it.Key
	}
	return true
}

func (c *collector) queuePage(pg uint32) {
	if c.pages == nil {
		c.pages = map[uint32]bool{}
	}
	if !c.pages[pg] {
		c.pages[pg] = true
		c.keys = append(c.keys, lock.PageKey(c.tb.name, pg))
		c.newPages = append(c.newPages, pg)
	}
}

// flush takes the queued SIREAD locks in one lock-table critical section,
// then reads the newly locked pages' committed writer stamps — only now, so
// a concurrent page writer either still holds its exclusive page lock (and
// is a rival) or has committed and stamped the page. exhausted reports that
// the scan ran off the table's end, whose gap (the supremum) is protected
// too.
func (c *collector) flush(exhausted bool) {
	if exhausted && !c.tx.acc.page {
		c.keys = append(c.keys, lock.SupremumGapKey(c.tb.name))
	}
	c.writers = c.tx.db.locks.AcquireSIReadBatchInto(c.tx.t, c.keys, c.writers)
	c.keys = c.keys[:0]
	for _, pg := range c.newPages {
		c.writers = append(c.writers, c.tb.data.PageNewerWriters(pg, c.snap)...)
	}
	c.newPages = c.newPages[:0]
}

// reset empties the collector for another pass reading at snap.
func (c *collector) reset(snap core.TS) {
	c.snap = snap
	c.items, c.keys, c.newPages = c.items[:0], c.keys[:0], c.newPages[:0]
	c.n, c.found, c.lastFound, c.bounded = 0, 0, nil, false
	clear(c.pages)
}

// effectiveTo is the claimed predicate range end, which the recorder
// reports: what the result depends on. A limited scan that filled its limit
// depends only on [from, lastFound], so it claims the smallest exclusive
// bound covering that; the locked boundary may extend further, which is
// conservative for detection but must not widen the claim.
func (c *collector) effectiveTo() string {
	if c.limit > 0 && c.found >= c.limit && c.lastFound != nil {
		return string(c.lastFound) + "\x00"
	}
	return string(c.to)
}
