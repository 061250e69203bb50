package figures

// A Remote row runs against an ssiserver over TCP from a separate process,
// one connection per worker, and reports end-to-end commit latency
// alongside throughput and the server's admission-controller counters — the
// rig for the admission-control acceptance: at hundreds of connections a
// capped MPL should match or beat the uncapped server on commits/s while
// bounding p99, the paper's §6 thrashing fix observed from the client side.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"ssi/internal/harness"
	"ssi/internal/server"
	"ssi/internal/workload/kvmix"
	"ssi/internal/workload/smallbank"
	"ssi/ssidb"
)

// Remote runs a row over the wire.
type Remote struct {
	// Rows is the number of load units; Load writes unit i through tx,
	// which batches a hundred units into one request.
	Rows int
	Load func(tx smallbank.Tx, i int) error
	// Txn returns one worker's transaction over its own connection.
	Txn func(c *server.Client, iso ssidb.Isolation) harness.TxnFunc
}

func kvmixRemote(cfg kvmix.Config) *Remote {
	choose := cfg.Chooser()
	return &Remote{
		Rows: cfg.Keys,
		Load: func(tx smallbank.Tx, i int) error { return tx.Put(kvmix.Table, kvmix.Key(i), []byte("v")) },
		// One kvmix transaction is one batched round trip: begin, the whole
		// read/write set, and commit amortized into one request.
		Txn: func(c *server.Client, iso ssidb.Isolation) harness.TxnFunc {
			ops := make([]server.Op, 0, cfg.Reads+cfg.Writes)
			return func(r *rand.Rand) error {
				reader := cfg.ROFrac > 0 && r.Float64() < cfg.ROFrac
				ops = ops[:0]
				for i := 0; i < cfg.Reads; i++ {
					ops = append(ops, server.Op{Type: server.OpGet, Table: kvmix.Table, Key: kvmix.Key(choose(r))})
				}
				if !reader {
					for i := 0; i < cfg.Writes; i++ {
						ops = append(ops, server.Op{Type: server.OpPut, Table: kvmix.Table, Key: kvmix.Key(choose(r)), Val: []byte("w")})
					}
				}
				_, err := c.Do(iso, reader && cfg.RODeclared, ops)
				return err
			}
		},
	}
}

func smallbankRemote(cfg smallbank.Config) *Remote {
	return &Remote{
		Rows: cfg.Accounts,
		Load: func(tx smallbank.Tx, i int) error { return smallbank.LoadCustomer(tx, i, cfg) },
		// SmallBank runs interactively: Begin, each point read and write as
		// a round trip, then Commit — the conversational shape that
		// exercises per-statement latency and the session's open-transaction
		// accounting.
		Txn: func(c *server.Client, iso ssidb.Isolation) harness.TxnFunc {
			return func(r *rand.Rand) error {
				tx, err := c.Begin(iso, false)
				if err != nil {
					return err
				}
				if err := smallbank.RandomOp(tx, r, cfg); err != nil {
					tx.Abort()
					return err
				}
				return tx.Commit()
			}
		},
	}
}

// putBatch is a write-only smallbank.Tx that collects Puts into one batched
// request.
type putBatch []server.Op

func (b *putBatch) Put(table string, key, val []byte) error {
	*b = append(*b, server.Op{Type: server.OpPut, Table: table, Key: key, Val: val})
	return nil
}

func (b *putBatch) Get(string, []byte) ([]byte, bool, error) {
	return nil, false, errors.New("figures: remote load is write-only")
}

// admission reads the admission block of the server's MsgStats document.
func admission(c *server.Client) (server.AdmissionStats, error) {
	var st struct{ Admission server.AdmissionStats }
	raw, err := c.Stats()
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	return st.Admission, err
}

// backoff sleeps with full jitter over a capped exponential ceiling — the
// RunRetry policy, applied client-side (see ssidb.Retryable). Admission
// refusals (queue full / queue timeout) get a 64x longer ceiling: they
// signal sustained overload, not a lost race, so hammering the admission
// queue at conflict-retry cadence just converts the queue into a refusal
// storm.
func backoff(r *rand.Rand, attempt int, err error) {
	if attempt == 0 {
		return
	}
	base := 8 * time.Microsecond
	if errors.Is(err, server.ErrQueueFull) || errors.Is(err, server.ErrQueueTimeout) {
		base = 512 * time.Microsecond
	}
	ceil := time.Duration(1<<min(attempt, 7)) * base
	time.Sleep(time.Duration(r.Int63n(int64(ceil))))
}

// retrying runs txn until it commits or fails for good, backing off between
// retryable attempts and counting them in retries.
func retrying(txn harness.TxnFunc, retries *atomic.Uint64) harness.TxnFunc {
	return func(r *rand.Rand) error {
		for attempt := 0; ; attempt++ {
			err := txn(r)
			if err == nil || !server.Retryable(err) {
				return err
			}
			retries.Add(1)
			backoff(r, attempt, err)
		}
	}
}

func dial(addr string) (*server.Client, error) {
	c, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.Timeout = 30 * time.Second
	return c, nil
}

func measureRemote(s Scenario, c Config, mpls []int) ([]Cell, error) {
	if s.Remote == nil {
		return nil, fmt.Errorf("scenario %s cannot run against a server", s.Name)
	}
	ctl, err := dial(c.Addr)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	if err := ctl.Ping(); err != nil {
		return nil, err
	}
	for lo := 0; lo < s.Remote.Rows; lo += 100 {
		var b putBatch
		for i := lo; i < min(lo+100, s.Remote.Rows); i++ {
			if err := s.Remote.Load(&b, i); err != nil {
				return nil, err
			}
		}
		if _, err := ctl.Do(ssidb.SnapshotIsolation, false, b); err != nil {
			return nil, fmt.Errorf("remote %s load: %w", s.Name, err)
		}
	}
	var cells []Cell
	for _, conns := range mpls {
		cell, err := remoteCell(s, c, ctl, conns)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// remoteCell measures one cell over n connections, one worker each.
func remoteCell(s Scenario, c Config, ctl *server.Client, n int) (Cell, error) {
	conns := make([]*server.Client, n)
	defer func() {
		for _, cl := range conns {
			if cl != nil {
				cl.Close()
			}
		}
	}()
	for i := range conns {
		var err error
		if conns[i], err = dial(c.Addr); err != nil {
			return Cell{}, err
		}
	}

	var retries atomic.Uint64
	var base, after server.AdmissionStats
	var baseRetries uint64
	var statsErr error
	res := harness.Run(nil, harness.Options{
		MPL: n, Duration: c.Duration, Warmup: c.Warmup, Trials: c.Trials, Seed: 10,
		Setup: func(w int) harness.TxnFunc { return retrying(s.Remote.Txn(conns[w], c.Iso), &retries) },
		OnMeasureStart: func() {
			base, statsErr = admission(ctl)
			baseRetries = retries.Load()
		},
	})
	if res.Err != nil {
		return Cell{}, fmt.Errorf("remote %s %s: %w", s.Name, c.Iso, res.Err)
	}
	if statsErr == nil {
		after, statsErr = admission(ctl)
	}
	if statsErr != nil {
		return Cell{}, fmt.Errorf("server stats: %w", statsErr)
	}
	res.Isolation = c.Iso
	cell := newCell(res)
	cell.MPL = after.MPL
	cell.Connections = n
	cell.Retries = retries.Load() - baseRetries
	cell.Admitted = after.Admitted - base.Admitted
	cell.QueueFullRefusals = after.RefusedFull - base.RefusedFull
	cell.QueueTimeouts = after.RefusedWait - base.RefusedWait
	cell.QueueWaitMs = float64(after.QueueWaitTime-base.QueueWaitTime) / float64(time.Millisecond)
	return cell, nil
}
