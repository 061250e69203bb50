// Package ssidb is an embedded multiversion key-value database implementing
// the concurrency control algorithms studied in Cahill, Fekete and Röhm,
// "Serializable Isolation for Snapshot Databases" (SIGMOD 2008 / Cahill's
// 2009 thesis):
//
//   - S2PL: classical strict two-phase locking serializability,
//   - SnapshotIsolation: multiversion SI with the First-Committer-Wins rule,
//   - SerializableSI: the paper's contribution — SI plus SIREAD locks and
//     rw-antidependency tracking, which aborts transactions that could form
//     the "dangerous structure" present in every non-serializable SI
//     execution, yielding true serializability with non-blocking reads.
//
// Isolation levels are chosen per transaction and may be mixed (thesis
// §2.6.3, §3.8). Two lock/versioning granularities reproduce the paper's two
// prototypes: GranularityRow models InnoDB (row locks plus next-key gap
// locks, which detect phantoms per thesis §3.5) and GranularityPage models
// Berkeley DB (page-level locks and page-level First-Committer-Wins, whose
// coarseness is the source of the false positives analysed in §6.1.5).
//
// Typical use:
//
//	db := ssidb.Open(ssidb.Options{})
//	err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
//		v, _, err := tx.Get("accounts", []byte("alice"))
//		if err != nil {
//			return err
//		}
//		return tx.Put("accounts", []byte("alice"), newBalance(v))
//	})
//
// Errors ErrUnsafe, ErrWriteConflict, ErrDeadlock and ErrLockTimeout mean
// the transaction was aborted and should be retried by the application
// (IsAbort classifies them).
//
// # Durability
//
// Open is in-memory; OpenDir adds a write-ahead log and crash recovery:
//
//	db, err := ssidb.OpenDir(dir, ssidb.Options{
//		GroupCommitMaxDelay: 200 * time.Microsecond,
//	})
//
// Every committing writer appends one redo record at the engine's commit
// point — log order is commit order — and then waits for the record to be
// durable before its blocking locks are released, so no other transaction
// can observe state that a crash could roll back. Flushes are batched by
// group commit: a dedicated flusher goroutine lingers up to
// GroupCommitMaxDelay for committers to pile on (bounded by
// GroupCommitMaxBatch), and retires the whole batch with a single
// fdatasync against a preallocated segment. OpenDir replays the log —
// tolerating a torn tail from a mid-write crash — and Checkpoint folds it
// into an image so recovery stays proportional to recent activity; with
// CheckpointBytes > 0 checkpoints also trigger automatically as log bytes
// accumulate. Stats reports WALAppends, GroupCommitBatches, Fsyncs,
// AvgBatchSize and RecoveryReplayed.
//
// # Workload robustness: proven-robust programs at plain SI
//
// SSI's SIREAD locks and conflict tracking pay for serializability that
// some workloads get for free: if an application's transaction programs are
// statically robust — their dependency graph has no dangerous structure
// (Fekete 2005, thesis Ch. 2) — every execution under plain SI is already
// serializable. RegisterPrograms runs that analysis at registration:
//
//	rep, err := db.RegisterPrograms(progs, ssidb.ProgramOptions{
//		ClassTables: map[string]string{"Account": "account", ...},
//		AutoRemedy:  true, // mechanically Promote away dangerous structures
//	})
//	err = db.RunProgram("Pay", func(tx *ssidb.Txn) error { ... })
//
// A robust set runs every RunProgram transaction at SnapshotIsolation — no
// SIREADs, no false-positive ErrUnsafe aborts — with read-only programs
// riding the declared-read-only fast path; a non-robust set keeps full
// SerializableSI. The proof is guarded at runtime: accesses outside a
// program's declared footprint fail that statement with ErrFootprint and
// permanently escalate the database to SerializableSI, as does any ad-hoc
// Begin alongside registered programs (unless ProgramOptions.AllowAdhoc,
// which instead runs programs at SerializableSI while ad-hoc transactions
// are in flight). Stats reports ProgramRuns, ProgramSIRuns,
// FootprintViolations, SDGEscalations and SDGEscalated.
package ssidb

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ssi/internal/core"
	"ssi/internal/lock"
	"ssi/internal/mvcc"
	"ssi/internal/wal"
)

// Isolation selects a transaction's concurrency control algorithm.
type Isolation = core.Isolation

// Isolation levels.
const (
	SnapshotIsolation = core.SnapshotIsolation
	SerializableSI    = core.SerializableSI
	S2PL              = core.S2PL
)

// Detector selects the SSI conflict detector variant.
type Detector = core.Detector

// Detector variants (thesis §3.2 vs §3.6).
const (
	DetectorBasic   = core.DetectorBasic
	DetectorPrecise = core.DetectorPrecise
)

// Granularity selects the locking and conflict-detection granularity.
type Granularity int

const (
	// GranularityRow locks individual rows and the gaps between them, as
	// the InnoDB prototype does (thesis §4.6).
	GranularityRow Granularity = iota
	// GranularityPage locks whole B+tree pages and applies
	// First-Committer-Wins per page, as the Berkeley DB prototype does
	// (thesis §4.2-§4.3).
	GranularityPage
)

// Abort-class errors. A transaction returning one of these has already been
// rolled back; callers typically retry.
var (
	ErrUnsafe        = core.ErrUnsafe
	ErrWriteConflict = core.ErrWriteConflict
	ErrDeadlock      = core.ErrDeadlock
	// ErrLockTimeout reports that a blocking lock request waited longer
	// than Options.LockWaitTimeout. The transaction has been rolled back;
	// whatever held the lock may still be wedged, but this transaction (and
	// the locks it held) no longer contribute to the pile-up.
	ErrLockTimeout = core.ErrLockTimeout
	ErrTxnDone     = core.ErrTxnDone
	// ErrKeyExists reports an Insert of a key that is already visibly
	// present. It does not abort the transaction.
	ErrKeyExists = errors.New("ssi: key already exists")
	// ErrReadOnly reports a write attempted on a transaction declared
	// read-only at begin (BeginReadOnly, or BeginTx with TxnOptions.ReadOnly).
	// Like ErrKeyExists it is a statement-level error: the transaction is not
	// aborted and may continue reading and commit.
	ErrReadOnly = errors.New("ssi: write on read-only transaction")
)

// IsAbort reports whether err is one of the abort-class errors after which
// the transaction has been rolled back and may be retried.
func IsAbort(err error) bool {
	return errors.Is(err, ErrUnsafe) || errors.Is(err, ErrWriteConflict) ||
		errors.Is(err, ErrDeadlock) || errors.Is(err, ErrLockTimeout)
}

// Retryable reports whether err is a transient, retry-on-a-fresh-transaction
// error: a serialization failure (ErrUnsafe), a First-Committer-Wins write
// conflict (ErrWriteConflict), a deadlock victim (ErrDeadlock), or a lock
// wait abandoned at Options.LockWaitTimeout (ErrLockTimeout). It is the one
// retry classification shared by RunRetry, the server's wire error mapping
// (internal/server sets its retryable bit from it), and the ssibench network
// client — so retry policy cannot drift between layers.
//
// Today Retryable(err) == IsAbort(err); it exists as the stable, intent-named
// API. Callers that loop on it should back off the way RunRetry does: full
// jitter over a capped exponential ceiling (8µs doubling per consecutive
// abort, capped at 1<<7, i.e. ~1ms), which desynchronises contending retry
// loops and prevents the basic detector's abort-everyone livelock on hot keys.
func Retryable(err error) bool {
	return IsAbort(err)
}

// errText renders an error for a stats field: empty string for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Recorder receives the database's operation history. It exists so tests can
// build the multiversion serialization graph of an execution and verify
// serializability from the outside (the methodology of thesis §4.7). readTS
// is the snapshot for snapshot reads, or the clock at read time for locking
// reads; sawWriter is the transaction that created the version read (0 if
// the key was absent). Implementations must be safe for concurrent use.
type Recorder interface {
	RecBegin(txn uint64, iso string)
	RecRead(txn uint64, table, key string, sawWriter uint64, readTS uint64)
	RecWrite(txn uint64, table, key string, tombstone bool)
	RecScan(txn uint64, table, from, to string, readTS uint64)
	RecCommit(txn uint64, commitTS uint64)
	RecAbort(txn uint64)
}

// Options configures a DB.
type Options struct {
	// Detector selects the SSI variant; the default DetectorBasic is the
	// boolean-flag algorithm, DetectorPrecise the §3.6 refinement.
	Detector Detector
	// Granularity selects row- or page-level locking. Default row.
	Granularity Granularity
	// PageMaxKeys is the default B+tree page capacity for tables created
	// implicitly. Smaller pages increase page-mode contention. Default 64.
	PageMaxKeys int
	// FlushLatency is the simulated duration of one physical log flush at
	// commit: the WAL runs against an in-memory null device whose sync
	// sleeps this long. Zero disables logging entirely (the Figure 6.1
	// configuration); non-zero enables group commit against the simulated
	// disk (Figures 6.2+). Ignored when Dir is set — real fsyncs are used.
	FlushLatency time.Duration
	// Dir, when non-empty, makes the database durable: commits are redo-
	// logged to a group-committed WAL under Dir, checkpoints are written
	// there, and OpenDir replays both on restart. Empty (the default) keeps
	// the engine fully in-memory.
	Dir string
	// GroupCommitMaxDelay is how long the WAL flusher lingers before
	// issuing its sync so concurrent committers can join the batch. Zero
	// syncs immediately; batching still happens naturally among commits
	// that arrive while a sync is in flight.
	GroupCommitMaxDelay time.Duration
	// GroupCommitMaxBatch skips the linger once this many commit records
	// are pending. Default 256.
	GroupCommitMaxBatch int
	// SegmentBytes is the WAL segment roll size. Default 64 MiB.
	SegmentBytes int64
	// CheckpointBytes triggers an automatic asynchronous checkpoint (and
	// WAL truncation) once this many log bytes accumulate since the last
	// one. Zero selects the default (16 MiB); negative disables automatic
	// checkpoints (DB.Checkpoint still works). Only meaningful with Dir.
	CheckpointBytes int64
	// LockShards is the number of hash stripes in the lock manager's table
	// (rounded up to a power of two, clamped to [1, 256]). Zero selects the
	// default, lock.DefaultShards: GOMAXPROCS-scaled so every core can work
	// a different stripe. One shard reproduces the paper's single lock-table
	// latch, useful as a contention baseline.
	LockShards int
	// LockWaitTimeout bounds how long a blocking lock request (S2PL reads,
	// write locks at every level) may wait before the transaction is
	// aborted with ErrLockTimeout. Zero, the default, waits forever —
	// deadlocks are still detected immediately either way; the timeout
	// exists for the non-cycle hazard of a holder that is simply stuck.
	LockWaitTimeout time.Duration
	// TableShards is the number of hash partitions in each table's row
	// store (rounded up to a power of two, clamped to [1, 256]). Each
	// partition is an independently latched B+tree with its own page-stamp
	// registry, so point operations on different partitions never contend;
	// ordered scans merge the partitions back into one sequence. Zero
	// selects the default, mvcc.ShardCount: GOMAXPROCS-scaled. One
	// partition reproduces the single-tree store, useful as a baseline and
	// as the oracle in the cross-partition scan property tests.
	TableShards int
	// VacuumEvery is the per-partition count of superseded row versions
	// that triggers an asynchronous vacuum sweep of that partition (version
	// chains and page write-stamps are pruned against the
	// OldestActiveSnapshot watermark). Zero selects
	// mvcc.DefaultVacuumEvery. Vacuum also runs when the watermark-advance
	// hook sees trigger-level garbage, and on demand via DB.Vacuum.
	VacuumEvery int
	// DisableSIReadUpgrade turns off the §3.7.3 optimisation that discards
	// a transaction's SIREAD lock once it acquires EXCLUSIVE on the same
	// key. Used by ablation benchmarks.
	DisableSIReadUpgrade bool
	// DisableEarlyAbort turns off the §3.7.1 optimisation that aborts an
	// unsafe pivot at its next operation instead of waiting for commit.
	DisableEarlyAbort bool
	// Recorder, if set, receives the full operation history.
	Recorder Recorder
}

type table struct {
	name        string
	data        *mvcc.Table
	pageMaxKeys int // as configured at creation; recorded in checkpoints
}

// tableMap is the immutable table directory; a new map is published on every
// table creation (copy-on-write), so the per-operation name lookup is one
// atomic load with no reader-count cache-line bounce.
type tableMap = map[string]*table

// DB is an embedded multiversion database. All methods are safe for
// concurrent use.
type DB struct {
	opts  Options
	mgr   *core.Manager
	locks *lock.Manager
	log   *wal.Log // nil when neither Dir nor FlushLatency is set
	dir   string   // Options.Dir; "" for in-memory (real or simulated log)

	tables   atomic.Pointer[tableMap]
	createMu sync.Mutex // serialises table creation (map copy + publish)

	// Durability bookkeeping: recovered counts records replayed at open;
	// ckptBase is the WAL byte count at the last checkpoint (the automatic
	// trigger measures growth against it); ckptBusy is the async
	// single-flight latch; ckptMu serialises checkpoint passes.
	recovered   atomic.Uint64
	checkpoints atomic.Uint64
	ckptBase    atomic.Uint64
	ckptBusy    atomic.Bool
	ckptMu      sync.Mutex

	cleanupBatches atomic.Uint64
	wmTicks        atomic.Uint64

	// Read-only path instrumentation (see Stats).
	roBegins        atomic.Uint64
	roPromotions    atomic.Uint64
	roDeferredWaits atomic.Uint64
	roSIReadSkips   atomic.Uint64

	// Robustness subsystem (programs.go): the registered program set, the
	// one-way escalated-to-SSI latch with its event counter, the footprint
	// and program-run counters, and the ad-hoc drain barrier pair —
	// siProgActive counts in-flight program transactions admitted at plain
	// SI, adhocActive the ad-hoc transactions admitted under AllowAdhoc.
	programs            atomic.Pointer[progRegistry]
	sdgEscalated        atomic.Bool
	sdgEscalations      atomic.Uint64
	footprintViolations atomic.Uint64
	programRuns         atomic.Uint64
	programSIRuns       atomic.Uint64
	siProgActive        atomic.Int64
	adhocActive         atomic.Int64
}

// Open creates a database with the given options. With Options.Dir unset it
// always succeeds and the database is in-memory; with Dir set it may need
// recovery, and Open panics where OpenDir would return an error — durable
// callers should prefer OpenDir.
func Open(opts Options) *DB {
	db, err := open(opts)
	if err != nil {
		panic("ssidb: Open(durable): " + err.Error())
	}
	return db
}

// OpenDir opens (creating if needed) a durable database rooted at dir:
// committed transactions are redo-logged through the group-commit WAL, and
// opening an existing directory recovers by loading the last checkpoint and
// rolling the log forward. Stats.RecoveryReplayed reports how many log
// records were applied.
func OpenDir(dir string, opts Options) (*DB, error) {
	opts.Dir = dir
	return open(opts)
}

func open(opts Options) (*DB, error) {
	if opts.PageMaxKeys <= 0 {
		opts.PageMaxKeys = 64
	}
	if opts.Dir != "" && opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = 16 << 20
	}
	db := &DB{
		opts:  opts,
		dir:   opts.Dir,
		mgr:   core.NewManager(opts.Detector),
		locks: lock.NewManagerShards(!opts.DisableSIReadUpgrade, opts.LockShards),
	}
	empty := tableMap{}
	db.tables.Store(&empty)
	db.locks.SetWaitTimeout(opts.LockWaitTimeout)
	if opts.Dir != "" || opts.FlushLatency > 0 {
		l, err := wal.Open(wal.Options{
			Dir:                 opts.Dir,
			SyncDelay:           opts.FlushLatency,
			SegmentBytes:        opts.SegmentBytes,
			GroupCommitMaxDelay: opts.GroupCommitMaxDelay,
			GroupCommitMaxBatch: opts.GroupCommitMaxBatch,
		})
		if err != nil {
			return nil, err
		}
		db.log = l
		if opts.Dir != "" {
			if err := db.recover(); err != nil {
				l.Close()
				return nil, err
			}
			db.ckptBase.Store(db.log.StatsSnapshot().BytesAppended)
		}
		// Installed only after recovery, so replayed commits are never
		// re-appended to the log they came from.
		db.mgr.SetCommitHook(db.walCommitHook)
	}
	// Every watermark advance is a reclamation opportunity; the hook is an
	// atomic-counter throttle plus per-partition trigger checks, with the
	// sweeps themselves asynchronous.
	db.mgr.SetWatermarkHook(db.onWatermarkAdvance)
	return db, nil
}

// Close flushes and closes the write-ahead log. In-flight transactions must
// have finished; Close does not wait for them. Closing an in-memory
// database is a no-op.
func (db *DB) Close() error {
	if db.log == nil {
		return nil
	}
	db.ckptMu.Lock() // let a running checkpoint finish
	defer db.ckptMu.Unlock()
	return db.log.Close()
}

// LockShards returns the lock manager's effective shard count.
func (db *DB) LockShards() int { return db.locks.Shards() }

// TableShards returns the effective row-store partition count per table.
func (db *DB) TableShards() int { return mvcc.ShardCount(db.opts.TableShards) }

// CreateTable creates a table with an explicit page capacity (keys per
// B+tree page). Creating an existing table is a no-op. Tables are also
// created implicitly on first use with the default capacity.
func (db *DB) CreateTable(name string, pageMaxKeys int) {
	db.getOrCreateTable(name, pageMaxKeys)
}

// getOrCreateTable is the single construction path for tables, so explicit
// and implicit creation cannot diverge (in particular, both must install the
// page-split hook that keeps SIREAD coverage and page write-stamps attached
// to moved rows under GranularityPage). Creation copies the table directory
// and publishes the new map atomically; lookups never block on it.
func (db *DB) getOrCreateTable(name string, pageMaxKeys int) *table {
	if pageMaxKeys <= 0 {
		pageMaxKeys = db.opts.PageMaxKeys
	}
	db.createMu.Lock()
	defer db.createMu.Unlock()
	old := *db.tables.Load()
	if tb := old[name]; tb != nil {
		return tb
	}
	tb := db.newTable(name, pageMaxKeys)
	next := make(tableMap, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = tb
	db.tables.Store(&next)
	return tb
}

func (db *DB) newTable(name string, pageMaxKeys int) *table {
	tb := &table{name: name, pageMaxKeys: pageMaxKeys}
	tb.data = mvcc.NewTable(name, mvcc.Config{
		PageMaxKeys: pageMaxKeys,
		Shards:      db.opts.TableShards,
		Horizon:     db.mgr.OldestActiveSnapshot,
		VacuumEvery: db.opts.VacuumEvery,
	})
	if db.opts.Granularity == GranularityPage {
		// Page splits move rows to a new page: readers' SIREAD coverage
		// must follow the moved rows (run under the partition latch, atomic
		// with the split; the page write-stamp watermark inheritance is
		// built into the store).
		tb.data.SetSplitHook(func(oldPage, newPage uint32) {
			db.locks.InheritSIRead(lock.PageKey(name, oldPage), lock.PageKey(name, newPage))
		})
	}
	return tb
}

func (db *DB) table(name string) *table {
	if tb := (*db.tables.Load())[name]; tb != nil {
		return tb
	}
	return db.getOrCreateTable(name, 0)
}

// Begin starts a transaction at the given isolation level. Per thesis §4.5
// the read snapshot is assigned lazily, after the first statement's locks,
// so single-statement updates never abort under First-Committer-Wins.
func (db *DB) Begin(iso Isolation) *Txn {
	return db.BeginTx(iso, TxnOptions{})
}

// TxnOptions declares per-transaction properties at begin.
type TxnOptions struct {
	// ReadOnly declares that the transaction will not write: Put, Insert,
	// Delete and GetForUpdate on it return ErrReadOnly. The engine exploits
	// the declaration on the SerializableSI path — a read-only transaction
	// can never be the outgoing edge of a dangerous structure, so out-edge
	// tracking, the operation-time pivot probe and the commit-time re-check
	// all drop out; and once its snapshot is safe (no concurrent read-write
	// transaction can still commit a conflicting structure) it stops
	// acquiring SIREAD locks entirely, reading at plain-SI cost while
	// remaining serializable.
	ReadOnly bool
	// Deferrable, with ReadOnly at SerializableSI, blocks begin until a safe
	// snapshot is available, so the transaction runs SIREAD-free from its
	// first read. Like PostgreSQL's SERIALIZABLE READ ONLY DEFERRABLE it may
	// wait indefinitely under sustained read-write traffic; it never aborts
	// other transactions to get its snapshot. Ignored unless ReadOnly at a
	// conflict-tracking level.
	Deferrable bool
}

// BeginTx is Begin with explicit transaction options.
//
// With programs registered (RegisterPrograms), BeginTx is an *ad-hoc* begin:
// it permanently escalates program execution to SerializableSI — unless the
// registration opted into AllowAdhoc, in which case it waits for in-flight
// SI-mode program transactions to drain and is admitted without escalating.
func (db *DB) BeginTx(iso Isolation, opts TxnOptions) *Txn {
	adhocToken := db.noteAdhocBegin()
	tx := db.beginTx(iso, opts)
	tx.adhocToken = adhocToken
	return tx
}

// beginTx starts a transaction without the ad-hoc accounting — the shared
// path under both BeginTx and BeginProgram.
func (db *DB) beginTx(iso Isolation, opts TxnOptions) *Txn {
	if opts.ReadOnly {
		db.roBegins.Add(1)
		if opts.Deferrable && iso.TracksConflicts() {
			return db.beginDeferred(iso)
		}
	}
	t := db.mgr.BeginTx(iso, opts.ReadOnly)
	if r := db.opts.Recorder; r != nil {
		r.RecBegin(t.ID(), iso.String())
	}
	return &Txn{db: db, t: t, ro: opts.ReadOnly}
}

// BeginReadOnly starts a transaction declared read-only at the given
// isolation level: BeginTx(iso, TxnOptions{ReadOnly: true}).
func (db *DB) BeginReadOnly(iso Isolation) *Txn {
	return db.BeginTx(iso, TxnOptions{ReadOnly: true})
}

// beginDeferred implements the DEFERRABLE contract: acquire a snapshot, and
// if it is not safe, either keep waiting for the read-write watermark to
// pass it (no potential pivot has committed above it yet) or — once one
// has, dooming it forever — discard the probe transaction and retry with a
// fresh snapshot, which starts above the threat that killed the last one.
func (db *DB) beginDeferred(iso Isolation) *Txn {
	waited := false
	for {
		t := db.mgr.BeginTx(iso, true)
		s := db.mgr.AssignSnapshot(t)
		for {
			if db.mgr.SnapshotSafe(t) {
				if r := db.opts.Recorder; r != nil {
					r.RecBegin(t.ID(), iso.String())
				}
				db.roPromotions.Add(1)
				return &Txn{db: db, t: t, ro: true, roSafe: true}
			}
			if db.mgr.ThreatHorizon() > s {
				break // doomed: a threat committed above s, retry fresh
			}
			if !waited {
				waited = true
				db.roDeferredWaits.Add(1)
			}
			time.Sleep(50 * time.Microsecond)
		}
		// The probe never ran a statement and was never announced to the
		// Recorder, so a plain core abort (plus suspended-cleanup handoff)
		// erases it.
		db.afterCleanup(db.mgr.Abort(t))
	}
}

// RunReadOnly is Run with the transaction declared read-only.
func (db *DB) RunReadOnly(iso Isolation, fn func(*Txn) error) error {
	tx := db.BeginReadOnly(iso)
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// Run executes fn inside a transaction at the given isolation level,
// committing on nil return and aborting otherwise. It does not retry; use
// RunRetry for automatic retry of abort-class errors.
func (db *DB) Run(iso Isolation, fn func(*Txn) error) error {
	tx := db.Begin(iso)
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// RunRetry is Run plus automatic retry when the transaction aborts with an
// abort-class error (unsafe, write conflict, deadlock), the standard
// application response the paper assumes.
//
// From the second consecutive abort on, retries back off with full jitter
// (capped exponential, 16µs up to ~1ms). The basic detector aborts every
// member of a dangerous structure regardless of whether any of them
// committed, so identical retry loops contending on one hot key can
// re-create the same structure in lockstep indefinitely — a livelock in
// which every transaction aborts and none commits. Desynchronising the
// loops is what lets one slip through and commit; its SIREAD locks then
// drain and the structure dissolves. (The precise detector does not need
// the jitter for progress — it only aborts a pivot whose outgoing partner
// actually committed first — but repeated conflicts still mean the key is
// hot, and backing off sheds useless work.)
func (db *DB) RunRetry(iso Isolation, fn func(*Txn) error) error {
	for attempt := 0; ; attempt++ {
		err := db.Run(iso, fn)
		if err == nil || !Retryable(err) {
			return err
		}
		if attempt > 0 {
			shift := attempt
			if shift > 7 {
				shift = 7
			}
			ceil := time.Duration(1<<shift) * 8 * time.Microsecond
			time.Sleep(time.Duration(rand.Int63n(int64(ceil))))
		}
	}
}

// afterCleanup releases the locks of suspended transactions retired by a
// core sweep, and periodically prunes page write-stamps.
func (db *DB) afterCleanup(cleaned []*core.Txn) {
	if len(cleaned) == 0 {
		return
	}
	for _, c := range cleaned {
		db.locks.ReleaseAll(c)
	}
	if db.opts.Granularity == GranularityPage && db.cleanupBatches.Add(1)%64 == 0 {
		h := db.mgr.OldestActiveSnapshot()
		for _, tb := range *db.tables.Load() {
			tb.data.PruneStamps(h)
		}
	}
}

// onWatermarkAdvance is the core.Manager watermark hook (already sampled to
// roughly every 16th transaction end): every 4th delivery it offers each
// table's partitions a vacuum opportunity (cheap counter checks; partitions
// over their superseded-version threshold sweep asynchronously). This is
// what reclaims garbage that accumulated while an old snapshot pinned the
// watermark — the write path stops re-triggering on a stalled partition,
// and the advance re-arms it.
func (db *DB) onWatermarkAdvance(core.TS) {
	if db.wmTicks.Add(1)%4 != 0 {
		return
	}
	for _, tb := range *db.tables.Load() {
		tb.data.MaybeVacuum()
	}
	// Checkpoints piggyback on the same cadence: reclaiming log segments is
	// the durability twin of reclaiming dead versions, and both are gated
	// on the watermark moving (a stalled snapshot pins both).
	db.maybeCheckpoint()
}

// VacuumStats reports what a DB.Vacuum pass reclaimed.
type VacuumStats struct {
	// VersionsPruned is the number of row versions cut out of version
	// chains (superseded before the OldestActiveSnapshot watermark).
	VersionsPruned int
	// StampWritersPruned is the number of page write-stamp entries expired
	// (their commit stamps folded into each page's First-Committer-Wins
	// floor).
	StampWritersPruned int
}

// Vacuum synchronously sweeps every table's partitions against the current
// OldestActiveSnapshot watermark, reclaiming row versions and page
// write-stamps no active or future snapshot can observe. The sweeps take
// each partition latch in short chunks, so concurrent transactions keep
// running. Vacuum also runs automatically (per-partition dead-version
// triggers and the watermark-advance hook); the method exists for tests,
// for quiesced reclamation, and as an operational lever.
func (db *DB) Vacuum() VacuumStats {
	var st VacuumStats
	for _, tb := range *db.tables.Load() {
		vs := tb.data.Vacuum()
		st.VersionsPruned += vs.VersionsPruned
		st.StampWritersPruned += vs.StampWritersPruned
	}
	return st
}

// TableStats is a census of one table's partitioned row store.
type TableStats struct {
	// Shards is the partition count; Keys and Pages are summed across
	// partitions.
	Shards int
	Keys   int
	Pages  int
	// DeadVersions is the current superseded-version estimate across
	// partitions (the vacuum trigger counter).
	DeadVersions int64
	// Cumulative vacuum activity since the table was created.
	VacuumRuns         uint64
	VersionsPruned     uint64
	StampWritersPruned uint64
	// VacuumKeyVisits counts the chains vacuum sweeps walked — the
	// garbage-proportionality metric: dirty-list sweeps keep it tracking the
	// superseded-version count rather than partition width × sweep count.
	VacuumKeyVisits uint64
}

// TableStats returns the partition/vacuum census for table name. Unlike the
// data operations, a census does not create the table: an unknown name
// returns zero stats.
func (db *DB) TableStats(name string) TableStats {
	tb := (*db.tables.Load())[name]
	if tb == nil {
		return TableStats{}
	}
	ts := tb.data.Stats()
	st := TableStats{
		Shards:             len(ts.Shards),
		Keys:               ts.Keys,
		Pages:              ts.Pages,
		VacuumRuns:         ts.VacuumRuns,
		VersionsPruned:     ts.VersionsPruned,
		StampWritersPruned: ts.StampWritersPruned,
		VacuumKeyVisits:    ts.VacuumKeyVisits,
	}
	for _, sh := range ts.Shards {
		st.DeadVersions += sh.DeadVersions
	}
	return st
}

// Stats is a census of internal state, used by tests to verify that
// suspended-transaction cleanup keeps bookkeeping bounded (thesis §4.6.1)
// and by benchmarks to report lock-wait behaviour.
type Stats struct {
	ActiveTxns    int
	SuspendedTxns int
	LockedKeys    int
	LockOwners    int

	// Write-ahead log / durability instrumentation, cumulative since Open
	// (zero for in-memory databases with no simulated flush latency).
	// WALAppends counts commit records appended; GroupCommitBatches the
	// flushed batches; Fsyncs the physical syncs (one per batch); Avg-
	// BatchSize is WALAppends/GroupCommitBatches —
	// values above 1 are group commit working; RecoveryReplayed is the
	// number of log records rolled forward when this database was opened;
	// Checkpoints the checkpoint passes completed since Open.
	WALAppends         uint64
	GroupCommitBatches uint64
	Fsyncs             uint64
	AvgBatchSize       float64
	RecoveryReplayed   uint64
	Checkpoints        uint64

	// WAL health. The flusher's first I/O error is sticky: every commit
	// after it fails its durability wait, and the only recovery is reopening
	// the database. WALDegraded surfaces that state as a poll-able health
	// field (with WALErr the error text) so an operator — or the server's
	// stats endpoint — can see degraded durability without waiting for the
	// next commit to trip over it.
	WALDegraded bool
	WALErr      string

	// Lock-wait instrumentation, cumulative since Open. LockWaits counts
	// lock requests that found a blocker; LockSpinGrants the subset that
	// resolved during the lock manager's bounded spin; LockParks the subset
	// that slept on the wait queue; LockWakeups the targeted handoff
	// signals delivered (≈ one per granted parked request); LockTimeouts
	// the waits abandoned via Options.LockWaitTimeout; LockWaitTime the
	// cumulative parked duration.
	LockWaits      uint64
	LockSpinGrants uint64
	LockParks      uint64
	LockWakeups    uint64
	LockTimeouts   uint64
	LockWaitTime   time.Duration

	// Vacuum activity, cumulative since Open, summed over tables (see
	// DB.TableStats for the per-table breakdown).
	VacuumRuns     uint64
	VersionsPruned uint64

	// Read-only path instrumentation, cumulative since Open. ROBegins counts
	// transactions declared read-only at begin; ROSafePromotions the
	// read-only SSI transactions that reached a safe snapshot (at begin for
	// deferred begins, mid-flight otherwise) and dropped SIREAD acquisition;
	// RODeferredWaits the deferrable begins that actually had to wait;
	// ROSIReadSkips the SIREAD lock acquisitions avoided by promoted
	// transactions (one per point read, one per scanned row plus its gap
	// per scan).
	ROBegins         uint64
	ROSafePromotions uint64
	RODeferredWaits  uint64
	ROSIReadSkips    uint64

	// Robustness-subsystem instrumentation, cumulative since Open.
	// ProgramRuns counts BeginProgram/RunProgram transactions; ProgramSIRuns
	// the subset admitted at plain SI under the robustness proof;
	// FootprintViolations the statements rejected for touching a table
	// outside their program's declared footprint; SDGEscalations the events
	// that tripped (or re-confirmed) the one-way escalated-to-SSI latch — a
	// footprint violation, or an ad-hoc begin without AllowAdhoc.
	// SDGEscalated reports the latch itself.
	ProgramRuns         uint64
	ProgramSIRuns       uint64
	FootprintViolations uint64
	SDGEscalations      uint64
	SDGEscalated        bool
}

// StatsSnapshot returns current counters.
func (db *DB) StatsSnapshot() Stats {
	cs := db.mgr.StatsSnapshot()
	ls := db.locks.StatsSnapshot()
	var ws wal.Stats
	var walErr error
	if db.log != nil {
		ws = db.log.StatsSnapshot()
		walErr = db.log.Err()
	}
	var avgBatch float64
	if ws.Batches > 0 {
		avgBatch = float64(ws.Appends) / float64(ws.Batches)
	}
	var vruns, vpruned uint64
	for _, tb := range *db.tables.Load() {
		ts := tb.data.Stats()
		vruns += ts.VacuumRuns
		vpruned += ts.VersionsPruned
	}
	return Stats{
		VacuumRuns:       vruns,
		VersionsPruned:   vpruned,
		ROBegins:         db.roBegins.Load(),
		ROSafePromotions: db.roPromotions.Load(),
		RODeferredWaits:  db.roDeferredWaits.Load(),
		ROSIReadSkips:    db.roSIReadSkips.Load(),

		ProgramRuns:         db.programRuns.Load(),
		ProgramSIRuns:       db.programSIRuns.Load(),
		FootprintViolations: db.footprintViolations.Load(),
		SDGEscalations:      db.sdgEscalations.Load(),
		SDGEscalated:        db.sdgEscalated.Load(),

		ActiveTxns:    cs.Active,
		SuspendedTxns: cs.Suspended,
		LockedKeys:    ls.Keys,
		LockOwners:    ls.Owners,

		WALAppends:         ws.Appends,
		GroupCommitBatches: ws.Batches,
		Fsyncs:             ws.Fsyncs,
		AvgBatchSize:       avgBatch,
		RecoveryReplayed:   db.recovered.Load(),
		Checkpoints:        db.checkpoints.Load(),
		WALDegraded:        walErr != nil,
		WALErr:             errText(walErr),

		LockWaits:      ls.Waits,
		LockSpinGrants: ls.SpinGrants,
		LockParks:      ls.Parks,
		LockWakeups:    ls.Wakeups,
		LockTimeouts:   ls.Timeouts,
		LockWaitTime:   ls.WaitTime,
	}
}

// TableLen returns the number of distinct keys ever inserted into table.
func (db *DB) TableLen(name string) int { return db.table(name).data.Len() }

// TablePages returns the number of B+tree pages allocated for table —
// useful for sizing page-granularity contention experiments.
func (db *DB) TablePages(name string) int { return db.table(name).data.PageCount() }
