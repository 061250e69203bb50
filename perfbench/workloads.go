package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ssi/internal/server"
	"ssi/internal/workload/kvmix"
	"ssi/internal/workload/smallbank"
	"ssi/ssidb"
)

// Every workload is a closed loop of this many clients, the core count of
// the box the benchmark was sized on; each client is one goroutine with at
// most one connection.
const nClients = 2

// ringLen is the number of inputs generated per client before any window;
// transaction i uses input i mod ringLen.
const ringLen = 1 << 16

// hotCustomers is the SmallBank hot set. With two clients the paper's 1,000
// customers leave SSI nearly idle; 20 gives thousands of write conflicts,
// rw-antidependencies and lock waits per run.
const hotCustomers = 20

// Scan shapes of kvscan-large: the read-only client's long scan and the
// read-write client's short one.
const (
	longScan  = 1000
	shortScan = 16
)

// params are the settings of one run.
type params struct {
	seed   int64
	kvKeys int    // kvscan-large table size
	out    string // directory for WAL data and trace files
}

// instance is one set-up workload: its database (and server), its clients,
// and finish, which stops it and, with check set, runs the workload's
// post-run output checks. age, when set, brings the database to the state
// the workload keeps it in once it has run for long, so that the measured
// windows do not sit in a transient; it is untimed and runs only on the
// instance that is measured.
type instance struct {
	db      *ssidb.DB
	srv     *server.Server
	tables  []string
	clients []*client
	age     func() error
	finish  func(check bool) error
}

// workload is a named load shape. setup generates the clients' inputs from
// p.seed (untimed), then opens and loads the database, which is what it
// times. rec, when set, records the history for the serializability check.
type workload struct {
	name    string
	durable bool // also run durablePass
	setups  int  // set-ups per run; setup_s is their median
	setup   func(p params, rec ssidb.Recorder) (*instance, time.Duration, error)
}

var workloads = []*workload{
	{name: "smallbank-hot", setups: 101, setup: setupSmallBankHot},
	{name: "kvscan-large", setups: 3, setup: setupKVScan},
	{name: "smallbank-net", durable: true, setups: 101, setup: setupSmallBankNet},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// clientRand is client id's input generator: a pure function of the seed.
func clientRand(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
}

// --- SmallBank ---

// SmallBank programs, drawn uniformly as in the paper's mix.
const (
	progBalance = iota
	progDepositChecking
	progTransactSaving
	progAmalgamate
	progWriteCheck
)

// sbInput is one SmallBank transaction's generated inputs.
type sbInput struct {
	prog   uint8
	n, n2  int32
	amount int64
}

// sbInputs draws a client's input ring the way smallbank.RandomOp draws one
// operation.
func sbInputs(r *rand.Rand, customers int) []sbInput {
	ins := make([]sbInput, ringLen)
	for i := range ins {
		in := sbInput{prog: uint8(r.Intn(5)), n: int32(r.Intn(customers)), amount: int64(r.Intn(10_000) + 1)}
		switch in.prog {
		case progTransactSaving:
			if r.Intn(2) == 0 {
				in.amount = -in.amount
			}
		case progAmalgamate:
			for in.n2 = in.n; in.n2 == in.n; {
				in.n2 = int32(r.Intn(customers))
			}
		}
		ins[i] = in
	}
	return ins
}

// run executes the program body inside tx.
func (in *sbInput) run(tx smallbank.Tx) error {
	n, v := int(in.n), in.amount
	switch in.prog {
	case progBalance:
		_, err := smallbank.Balance(tx, n)
		return err
	case progDepositChecking:
		return smallbank.DepositChecking(tx, n, v)
	case progTransactSaving:
		return smallbank.TransactSaving(tx, n, v)
	case progAmalgamate:
		return smallbank.Amalgamate(tx, n, int(in.n2))
	}
	return smallbank.WriteCheck(tx, n, v)
}

// sbTxn is one attempt's transaction, in-process (*ssidb.Txn) or remote
// (*server.RemoteTxn).
type sbTxn interface {
	smallbank.Tx
	Commit() error
	Abort() error
}

// callNames are the span names of one layer's public calls.
type callNames struct{ begin, get, put, commit, abort string }

var (
	localCalls  = &callNames{"ssidb.begin", "ssidb.get", "ssidb.put", "ssidb.commit", "ssidb.abort"}
	remoteCalls = &callNames{"server.begin_rtt", "server.op_rtt", "server.op_rtt", "server.commit_rtt", "server.abort_rtt"}
)

// timedTx is the timing smallbank.Tx wrapper of traced transactions: one
// span per call.
type timedTx struct {
	sbTxn
	sp    spanner
	names *callNames
}

func (t timedTx) Get(table string, key []byte) ([]byte, bool, error) {
	id := t.sp.start(t.names.get)
	v, ok, err := t.sbTxn.Get(table, key)
	t.sp.end(id)
	return v, ok, err
}

func (t timedTx) Put(table string, key, val []byte) error {
	id := t.sp.start(t.names.put)
	err := t.sbTxn.Put(table, key, val)
	t.sp.end(id)
	return err
}

// sbRings generates every client's SmallBank inputs.
func sbRings(seed int64) [][]sbInput {
	rings := make([][]sbInput, nClients)
	for id := range rings {
		rings[id] = sbInputs(clientRand(seed, id), hotCustomers)
	}
	return rings
}

// sbClients runs the SmallBank mix over the input rings, one client per
// ring; Balance is declared read-only.
func sbClients(seed int64, rings [][]sbInput, begins []func(bool) (sbTxn, error), names *callNames) []*client {
	var cs []*client
	for id, ins := range rings {
		cs = append(cs, sbClient(id, seed, ins, begins[id], names))
	}
	return cs
}

func sbClient(id int, seed int64, ins []sbInput, begin func(readOnly bool) (sbTxn, error), names *callNames) *client {
	return &client{
		id:       id,
		jitter:   rand.New(rand.NewSource(seed + int64(id))),
		readOnly: func(i int) bool { return ins[i%ringLen].prog == progBalance },
		attempt: func(c *client, i int, sp spanner) error {
			in := &ins[i%ringLen]
			id := sp.start(names.begin)
			tx, err := begin(in.prog == progBalance)
			sp.end(id)
			if err != nil {
				return err
			}
			var body smallbank.Tx = tx
			if sp.tr != nil {
				body = timedTx{tx, sp, names}
			}
			if err := in.run(body); err != nil {
				id := sp.start(names.abort)
				_ = tx.Abort() // the attempt's error is what the loop classifies
				sp.end(id)
				return err
			}
			id = sp.start(names.commit)
			err = tx.Commit()
			sp.end(id)
			return err
		},
	}
}

func localBegin(db *ssidb.DB) func(bool) (sbTxn, error) {
	return func(readOnly bool) (sbTxn, error) {
		if readOnly {
			return db.BeginReadOnly(ssidb.SerializableSI), nil
		}
		return db.Begin(ssidb.SerializableSI), nil
	}
}

func remoteBegin(cl *server.Client) func(bool) (sbTxn, error) {
	return func(readOnly bool) (sbTxn, error) {
		tx, err := cl.Begin(ssidb.SerializableSI, readOnly)
		if err != nil {
			return nil, err
		}
		return tx, nil
	}
}

var sbTables = []string{smallbank.TableAccount, smallbank.TableSaving, smallbank.TableChecking}

func sbConfig() smallbank.Config {
	cfg := smallbank.DefaultConfig()
	cfg.Accounts = hotCustomers
	return cfg
}

// sbDigest checks that all three rows of every customer are present and
// decodable, and returns a hash of every balance.
func sbDigest(db *ssidb.DB) (uint64, error) {
	h := fnv.New64a()
	err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		h.Reset()
		for n := 0; n < hotCustomers; n++ {
			id, ok, err := tx.Get(smallbank.TableAccount, smallbank.Name(n))
			if err != nil {
				return err
			}
			if !ok || len(id) != 4 || binary.BigEndian.Uint32(id) != uint32(n) {
				return fmt.Errorf("customer %d: bad account row %x", n, id)
			}
			h.Write(id)
			for _, t := range []string{smallbank.TableSaving, smallbank.TableChecking} {
				v, ok, err := tx.Get(t, id)
				if err != nil {
					return err
				}
				if !ok || len(v) != 8 {
					return fmt.Errorf("customer %d: bad %s row %x", n, t, v)
				}
				h.Write(v)
			}
		}
		return nil
	})
	return h.Sum64(), err
}

func setupSmallBankHot(p params, rec ssidb.Recorder) (*instance, time.Duration, error) {
	rings := sbRings(p.seed)
	start := time.Now()
	db := ssidb.Open(ssidb.Options{Recorder: rec})
	if err := smallbank.Load(db, sbConfig()); err != nil {
		return nil, 0, err
	}
	setup := time.Since(start)
	begins := slices.Repeat([]func(bool) (sbTxn, error){localBegin(db)}, nClients)
	return &instance{
		db: db, tables: sbTables, clients: sbClients(p.seed, rings, begins, localCalls),
		finish: func(check bool) error {
			if !check {
				return nil
			}
			_, err := sbDigest(db)
			return err
		},
	}, setup, nil
}

// serverOptions are ssiserver's defaults (internal/server/main.go); the
// server itself runs with its zero-value Config, which is the same. The
// group-commit linger only matters for a database with a log.
func serverOptions(rec ssidb.Recorder) ssidb.Options {
	return ssidb.Options{
		LockWaitTimeout:     time.Second,
		GroupCommitMaxDelay: 200 * time.Microsecond,
		Recorder:            rec,
	}
}

// serve starts a server for db on a loopback port and returns an instance
// whose clients run the SmallBank mix over the input rings, one connection
// each. finish stops the server and then runs after.
func serve(seed int64, rings [][]sbInput, db *ssidb.DB, after func(check bool) error) (*instance, error) {
	srv, err := server.Listen("127.0.0.1:0", server.Config{DB: db})
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	var conns []*server.Client
	stop := func() error {
		for _, cl := range conns {
			cl.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; err == nil {
			err = serr
		}
		if err != nil {
			return fmt.Errorf("server shutdown: %w", err)
		}
		return nil
	}
	var begins []func(bool) (sbTxn, error)
	for range rings {
		cl, err := server.Dial(srv.Addr().String())
		if err != nil {
			stop()
			return nil, err
		}
		conns = append(conns, cl)
		begins = append(begins, remoteBegin(cl))
	}
	return &instance{
		db: db, srv: srv, tables: sbTables,
		clients: sbClients(seed, rings, begins, remoteCalls),
		finish: func(check bool) error {
			if err := stop(); err != nil {
				return err
			}
			return after(check)
		},
	}, nil
}

func setupSmallBankNet(p params, rec ssidb.Recorder) (*instance, time.Duration, error) {
	rings := sbRings(p.seed)
	start := time.Now()
	db := ssidb.Open(serverOptions(rec))
	if err := smallbank.Load(db, sbConfig()); err != nil {
		return nil, 0, err
	}
	inst, err := serve(p.seed, rings, db, func(check bool) error {
		if !check {
			return nil
		}
		_, err := sbDigest(db)
		return err
	})
	return inst, time.Since(start), err
}

// durableTxns is the length, per client, of the durable pass.
const durableTxns = 1000

// durablePass runs the smallbank-net mix for durableTxns transactions per
// client through the same server, on a database with a write-ahead log
// under p.out. It then shuts the server down, closes the database, reopens
// the directory and requires the balance digest read before close to equal
// the one after, which proves that every acknowledged commit survived. It
// returns the pass as a window, whose counters give the per-layer WAL
// metrics, and the time the reopen took.
func durablePass(p params) (*window, time.Duration, error) {
	dir := filepath.Join(p.out, "wal")
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	db, err := ssidb.OpenDir(dir, serverOptions(nil))
	if err != nil {
		return nil, 0, err
	}
	if err := smallbank.Load(db, sbConfig()); err != nil {
		db.Close()
		return nil, 0, err
	}
	var replay time.Duration
	inst, err := serve(p.seed, sbRings(p.seed), db, func(bool) error {
		before, err := sbDigest(db)
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		t := time.Now()
		reopened, err := ssidb.OpenDir(dir, serverOptions(nil))
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		replay = time.Since(t)
		after, err := sbDigest(reopened)
		if cerr := reopened.Close(); err == nil {
			err = cerr
		}
		if err == nil && after != before {
			err = fmt.Errorf("reopen: balance digest %x, want %x", after, before)
		}
		return err
	})
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	w := &window{a: inst.snap()}
	drive(inst, durableTxns)
	w.b = inst.snap()
	w.secs = w.b.at.Sub(w.a.at).Seconds()
	for _, c := range inst.clients {
		w.tally.add(&c.win)
	}
	w.commits = float64(w.tally.outcomes[outCommit])
	if err := inst.finish(true); err != nil {
		return nil, 0, err
	}
	if w.tally.failed > 0 {
		return nil, 0, fmt.Errorf("%d transactions failed", w.tally.failed)
	}
	return w, replay, nil
}

// --- kvscan-large ---

// kvInput is one read-write transaction of kvscan-large: point reads, a
// short scan start and point writes, all uniform over the table.
type kvInput struct {
	reads  [4]int32
	scan   int32
	writes [2]int32
}

// kvValid reports whether v is a value the workload wrote under key k: "v"
// from kvmix.Load, or "w" followed by the key from the read-write client.
func kvValid(k, v []byte) bool {
	return len(v) == 1 && v[0] == 'v' ||
		len(v) == 1+len(k) && v[0] == 'w' && string(v[1:]) == string(k)
}

// checkedScan scans [lo, hi) and checks that the keys rise strictly, stay in
// range and carry valid values; it returns the row count.
func checkedScan(c *client, tx *ssidb.Txn, lo, hi int) (int, error) {
	n, prev := 0, -1
	err := tx.Scan(kvmix.Table, kvmix.Key(lo), kvmix.Key(hi), func(k, v []byte) bool {
		id := -1
		if len(k) == 4 {
			id = int(binary.BigEndian.Uint32(k))
		}
		if id <= prev || id < lo || id >= hi {
			c.violation("scan [%d,%d): key %x after %d", lo, hi, k, prev)
		}
		if !kvValid(k, v) {
			c.violation("scan: key %x has value %q", k, v)
		}
		prev = id
		n++
		return true
	})
	c.rows += int64(n)
	return n, err
}

// finishTxn commits tx, or aborts it when err is set, under spans.
func finishTxn(tx *ssidb.Txn, sp spanner, err error) error {
	if err != nil {
		id := sp.start("ssidb.abort")
		tx.Abort()
		sp.end(id)
		return err
	}
	id := sp.start("ssidb.commit")
	err = tx.Commit()
	sp.end(id)
	return err
}

// scanClient runs declared-read-only scans of longScan consecutive keys.
func scanClient(db *ssidb.DB, seed int64, starts []int32) *client {
	return &client{
		id:       0,
		jitter:   rand.New(rand.NewSource(seed)),
		readOnly: func(int) bool { return true },
		attempt: func(c *client, i int, sp spanner) error {
			lo := int(starts[i%ringLen])
			id := sp.start("ssidb.begin")
			tx := db.BeginReadOnly(ssidb.SerializableSI)
			sp.end(id)
			id = sp.start("ssidb.scan")
			n, err := checkedScan(c, tx, lo, lo+longScan)
			sp.endRows(id, n)
			if err == nil && n != longScan {
				c.violation("scan from %d returned %d rows, want %d", lo, n, longScan)
			}
			return finishTxn(tx, sp, err)
		},
	}
}

// rwClient runs the read-write transactions of kvscan-large.
func rwClient(db *ssidb.DB, seed int64, ins []kvInput) *client {
	return &client{
		id:       1,
		jitter:   rand.New(rand.NewSource(seed + 1)),
		readOnly: func(int) bool { return false },
		attempt: func(c *client, i int, sp spanner) error {
			in := &ins[i%ringLen]
			id := sp.start("ssidb.begin")
			tx := db.Begin(ssidb.SerializableSI)
			sp.end(id)
			for _, r := range in.reads {
				k := kvmix.Key(int(r))
				id := sp.start("ssidb.get")
				v, ok, err := tx.Get(kvmix.Table, k)
				sp.end(id)
				if err != nil {
					return finishTxn(tx, sp, err)
				}
				if !ok || !kvValid(k, v) {
					c.violation("get %x: found=%v value %q", k, ok, v)
				}
			}
			lo := int(in.scan)
			id = sp.start("ssidb.scan_short")
			n, err := checkedScan(c, tx, lo, lo+shortScan)
			sp.endRows(id, n)
			if err != nil {
				return finishTxn(tx, sp, err)
			}
			if n != shortScan {
				c.violation("scan from %d returned %d rows, want %d", lo, n, shortScan)
			}
			for _, w := range in.writes {
				k := kvmix.Key(int(w))
				id := sp.start("ssidb.put")
				err := tx.Put(kvmix.Table, k, append([]byte{'w'}, k...))
				sp.end(id)
				if err != nil {
					return finishTxn(tx, sp, err)
				}
			}
			return finishTxn(tx, sp, nil)
		},
	}
}

func setupKVScan(p params, rec ssidb.Recorder) (*instance, time.Duration, error) {
	keys := p.kvKeys
	r := clientRand(p.seed, 0)
	starts := make([]int32, ringLen)
	for i := range starts {
		starts[i] = int32(r.Intn(keys - longScan + 1))
	}
	r = clientRand(p.seed, 1)
	rw := make([]kvInput, ringLen)
	for i := range rw {
		in := &rw[i]
		for j := range in.reads {
			in.reads[j] = int32(r.Intn(keys))
		}
		in.scan = int32(r.Intn(keys - shortScan + 1))
		for j := range in.writes {
			in.writes[j] = int32(r.Intn(keys))
		}
	}

	start := time.Now()
	db := ssidb.Open(ssidb.Options{Recorder: rec})
	if err := kvmix.Load(db, kvmix.Config{Keys: keys}); err != nil {
		return nil, 0, err
	}
	setup := time.Since(start)
	return &instance{
		db: db, tables: []string{kvmix.Table},
		clients: []*client{scanClient(db, p.seed, starts), rwClient(db, p.seed, rw)},
		age:     func() error { return kvAge(db, p.seed, keys) },
		finish: func(check bool) error {
			if !check {
				return nil
			}
			return kvFullScan(db, keys)
		},
	}, setup, nil
}

// kvAgeBatch is the number of overwrites per transaction of kvAge.
const kvAgeBatch = 256

// kvAge overwrites every key once, in an order drawn from seed, with the
// value the read-write client writes. kvmix.Load inserts keys in order, so
// a fresh table's versions lie in memory in key order and a 1,000-key scan
// reads them nearly sequentially. The uniform overwrites of the read-write
// client scatter them, and scans slow down for as long as the share of
// rewritten keys grows: on a fresh table (2-vCPU VM) the scan p50 rose by
// half over the first 25 s and then kept creeping up. After kvAge every
// version already sits at a scattered address, the state a long run
// converges to, so the windows measure that state and not how far a run got
// into the transient.
func kvAge(db *ssidb.DB, seed int64, keys int) error {
	perm := clientRand(seed, nClients).Perm(keys)
	for lo := 0; lo < keys; lo += kvAgeBatch {
		batch := perm[lo:min(lo+kvAgeBatch, keys)]
		err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			for _, id := range batch {
				k := kvmix.Key(id)
				if err := tx.Put(kvmix.Table, k, append([]byte{'w'}, k...)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("age: %w", err)
		}
	}
	return nil
}

// kvFullScan scans the whole table and requires it to hold exactly the keys
// 0 to keys-1, in order, each with a value the workload wrote: no key was
// lost or added.
func kvFullScan(db *ssidb.DB, keys int) error {
	return db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		n := 0
		var bad error
		err := tx.Scan(kvmix.Table, nil, nil, func(k, v []byte) bool {
			if want := kvmix.Key(n); string(k) != string(want) || !kvValid(k, v) {
				bad = fmt.Errorf("full scan: row %d is key %x value %q, want key %x", n, k, v, want)
				return false
			}
			n++
			return true
		})
		switch {
		case err != nil:
			return err
		case bad != nil:
			return bad
		case n != keys:
			return fmt.Errorf("full scan: table holds %d keys, want %d", n, keys)
		}
		return nil
	})
}
