// Package ssi is the root of a from-scratch Go reproduction of
// "Serializable Isolation for Snapshot Databases" (Cahill, Fekete, Röhm;
// SIGMOD 2008 / Cahill's 2009 thesis).
//
// The public embedded-database API lives in package ssidb. The paper's
// algorithm (Serializable Snapshot Isolation) and all of its substrates —
// lock manager, MVCC store, page-structured B+tree, group-commit log — are
// implemented under internal/. The three benchmarks the paper evaluates
// (SmallBank, sibench, TPC-C++) live under internal/workload, and every
// figure of the paper's evaluation chapter is a row of the scenario table in
// internal/figures, run by BenchmarkScenario in bench_test.go and swept over
// the full MPL axis by cmd/ssibench.
//
// # Scaling beyond the paper
//
// The thesis prototypes inherit their hosts' global synchronisation: one
// kernel mutex for the transaction manager and one latch for the whole lock
// table, so every begin, lock and commit on every core serialises through
// two global locks. This reproduction keeps the paper's semantics — SIREAD
// suspension, page-split SIREAD inheritance, First-Committer-Wins, both
// conflict detectors — but rebuilds the substrates along the lines that
// made SSI production-ready in PostgreSQL (Ports & Grittner, VLDB 2012):
//
//   - internal/lock hash-stripes the lock table into GOMAXPROCS-scaled
//     shards (ssidb.Options.LockShards), each with its own mutex and
//     ownership bookkeeping; deadlock detection lives in a dedicated
//     cross-shard waits-for graph touched only by parked requests. The
//     contended path is spin-then-park: a blocked acquire probes briefly
//     before registering anywhere, then joins a per-entry FIFO queue whose
//     releases hand the lock directly to — and wake only — the waiters
//     that can now be granted. ssidb.Options.LockWaitTimeout bounds how
//     long a parked request may wait (failing with ErrLockTimeout), and
//     the wait path is instrumented end to end: ssidb.Stats reports
//     blocked acquires, spin grants versus parks, targeted wakeups,
//     timeouts and cumulative wait time (printed for every ssibench
//     cell).
//   - internal/core replaces the kernel mutex with an atomic clock, a
//     two-store commit-serialization point, a lock-free SSI conflict core,
//     and an id-sharded active-transaction registry whose pruning watermark
//     (OldestActiveSnapshot) is a handful of atomic loads. The conflict
//     state (the paper's inConflict/outConflict) is per-transaction: atomic
//     references written only under the owning transaction's tiny conflict
//     mutex, so the per-operation abort-early probe is three atomic loads
//     with no mutex unless a dangerous structure already exists,
//     MarkConflict coordinates only the two transactions on the edge (id
//     order prevents deadlock), and the commit-time dangerous-structure
//     re-check under the committing transaction's own mutex guarantees an
//     edge racing with commit is seen by at least one of the two checks
//     (the package comment states the memory-ordering invariants).
//     Transaction ends that advance the watermark fire a hook
//     (SetWatermarkHook) the storage layer uses to schedule garbage
//     reclamation.
//   - internal/mvcc hash-partitions every table's row store into
//     GOMAXPROCS-scaled partitions (ssidb.Options.TableShards), each an
//     independently latched B+tree with its own page write-stamp registry
//     and a disjoint page-number range, so point reads and writes on
//     different partitions share no latch while page-granularity locking,
//     split SIREAD inheritance and page-level First-Committer-Wins keep
//     their per-tree semantics. Ordered scans are a k-way merge over the
//     per-partition trees run as bounded lock-coupled rounds: each round
//     takes every partition latch shared (ascending — the order structural
//     inserts take them exclusively), emits up to a chunk of keys, installs
//     the emitted keys' SIREAD/gap locks while still latched, then releases
//     everything and re-seeks any iterator whose tree changed before the
//     next round. A writer waits for at most one round, never for the scan;
//     phantom detection is preserved because an insert behind the frontier
//     lands on a gap the scan already locked, and one ahead of it is
//     emitted by the resumed merge itself (the invariant argument is on
//     mvcc.Table.ScanWith). Version pruning is off the write path entirely:
//     superseding writes queue their chains on a bounded per-partition
//     dirty list, and vacuum sweeps against the OldestActiveSnapshot
//     watermark (also reachable as ssidb.DB.Vacuum) visit exactly those
//     chains — work proportional to garbage, with a chunked whole-partition
//     walk only as the list-overflow fallback, and write-path re-arming
//     once a pinned watermark advances. The table directory itself is an
//     atomic copy-on-write map — resolving a table name costs one atomic
//     load.
//   - Declared read-only transactions (ssidb.BeginReadOnly, RunReadOnly,
//     TxnOptions) ride the same registry: a transaction that never writes
//     can never be the outgoing side of a dangerous structure, so the core
//     skips its out-edge bookkeeping (the writer's incoming edge is kept —
//     the read-only anomaly's pivot still aborts), shrinks its abort-early
//     probe to a status check, and commits it by pure timestamp
//     publication. On top of that, a per-shard read-write watermark plus a
//     monotone threat horizon (the highest commit timestamp published with
//     an outgoing edge) decide when a snapshot is safe — no concurrent
//     read-write transaction can commit an anomaly ahead of it — at which
//     point the reader drops SIREAD acquisition entirely, point and scan,
//     and reads at plain-SI cost while staying serializable. A positive
//     verdict is permanently sound for its holder, so the check is a
//     handful of atomic loads until the first yes, then a cached boolean;
//     TxnOptions.Deferrable blocks begin until it holds (PostgreSQL's
//     DEFERRABLE contract).
//   - internal/server and cmd/ssiserver put a network front end on all of
//     it: a TCP server speaking a length-prefixed framed protocol with one
//     pipelined session goroutine per connection, a batched transaction
//     API (a whole read/write set plus commit in one round trip), and
//     interactive transactions whose remote handle runs the SmallBank
//     programs unmodified. The front door applies the paper's §6
//     thrashing argument as admission control — an MPL cap with a bounded
//     FIFO queue, queue-wait deadlines, and immediate retryable refusals
//     beyond either bound — plus per-connection read/write deadlines that
//     cut off clients wedged while holding locks, a connection cap with
//     fast refusal, a typed error taxonomy whose codes map back to the
//     ssidb sentinels across the wire, and a SIGTERM drain that finishes
//     in-flight transactions and exits 0. Commits are acknowledged only
//     after the group-commit fsync, so the kill -9 recovery contract holds
//     across the network boundary (both re-exec tested). `ssibench
//     -scenario kvmix -server addr -connections N` drives it from a
//     separate process and reports end-to-end p50/p99/p999 tail latency.
//
// The scaling rows of the same table (`ssibench -scenario kvmix` for the
// lock axis, `readheavy` for the row-store partition axis, `hot` for the
// hot-key mix that drives the SSI conflict paths, `scanstall` for
// full-table scans against point writers with writer commit-latency
// percentiles, `readonly` for the read-mostly declared-read-only mix)
// measure commit throughput versus parallelism and shard count,
// complementing the paper's figures, which measure contention regimes at
// modest multiprogramming; internal/core's microbenchmarks track the
// conflict core's per-call cost in isolation, and `ssibench -json` writes
// every run as a machine-readable BENCH_<name>.json.
package ssi
