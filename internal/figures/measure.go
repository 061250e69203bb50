package figures

import (
	"fmt"
	"os"
	"time"

	"ssi/internal/harness"
	"ssi/ssidb"
)

// Config is a sweep's coordinates besides the MPL, and its measurement
// window.
type Config struct {
	Iso ssidb.Isolation
	// Shards sets the row's shard axis; 0 keeps the row's own setting.
	Shards int
	// Durable commits through a real group-commit WAL in a fresh temporary
	// directory instead of in memory.
	Durable bool
	// Addr, if set, runs the row's Remote form against the server there.
	Addr             string
	Duration, Warmup time.Duration
	Trials           int
}

// Cell is one measured cell, as ssibench prints it and writes it into
// BENCH_<name>.json. Engine and server counters cover the measured window
// only (the last trial's, with Trials > 1).
type Cell struct {
	Iso       string  `json:"iso"`
	MPL       int     `json:"mpl"`
	Shards    int     `json:"shards,omitempty"`
	TPS       float64 `json:"tps"`
	CI95      float64 `json:"ci95,omitempty"`
	Commits   uint64  `json:"commits"`
	Deadlocks uint64  `json:"deadlocks"`
	Conflicts uint64  `json:"conflicts"`
	Unsafe    uint64  `json:"unsafe"`
	Timeouts  uint64  `json:"timeouts"`
	Rollbacks uint64  `json:"rollbacks"`

	// Commit-latency percentiles across all workers, from the harness's
	// log-bucket histogram (each at most one bucket, 1/16, high). Against a
	// server they are end-to-end, retries and backoff included.
	P50Us  float64 `json:"p50_us,omitempty"`
	P99Us  float64 `json:"p99_us,omitempty"`
	P999Us float64 `json:"p999_us,omitempty"`
	MaxUs  float64 `json:"max_us,omitempty"`

	// Lock-wait instrumentation.
	LockWaits      uint64  `json:"lock_waits,omitempty"`
	LockSpinGrants uint64  `json:"lock_spin_grants,omitempty"`
	LockParks      uint64  `json:"lock_parks,omitempty"`
	LockWakeups    uint64  `json:"lock_wakeups,omitempty"`
	LockWaitMs     float64 `json:"lock_wait_ms,omitempty"`
	// LockedKeys is the lock table's size when the run ends.
	LockedKeys int `json:"locked_keys,omitempty"`

	// Read-only path counters: declared-RO begins, safe-snapshot promotions
	// and SIREAD acquisitions skipped by promoted transactions.
	ROBegins     uint64 `json:"ro_begins,omitempty"`
	ROPromotions uint64 `json:"ro_promotions,omitempty"`
	ROSkips      uint64 `json:"ro_siread_skips,omitempty"`

	// Program-registry counters: RunProgram executions, how many were
	// admitted at plain SI, footprint violations and escalation events. A
	// robust run has ProgramSIRuns == ProgramRuns and zeros elsewhere.
	ProgramRuns         uint64 `json:"program_runs,omitempty"`
	ProgramSIRuns       uint64 `json:"program_si_runs,omitempty"`
	FootprintViolations uint64 `json:"footprint_violations,omitempty"`
	SDGEscalations      uint64 `json:"sdg_escalations,omitempty"`

	// WAL counters. AvgBatchSize above 1 is group commit amortising fsyncs
	// across committers.
	Durable            bool    `json:"durable,omitempty"`
	WALAppends         uint64  `json:"wal_appends,omitempty"`
	GroupCommitBatches uint64  `json:"group_commit_batches,omitempty"`
	Fsyncs             uint64  `json:"fsyncs,omitempty"`
	AvgBatchSize       float64 `json:"avg_batch_size,omitempty"`

	// Rows with a background scanner (scanstall): the workers are point
	// writers, so the writer percentiles repeat P50Us, P99Us and MaxUs;
	// Scans counts completed scans begun in the window.
	WriterP50Us float64 `json:"writer_p50_us,omitempty"`
	WriterP99Us float64 `json:"writer_p99_us,omitempty"`
	WriterMaxUs float64 `json:"writer_max_us,omitempty"`
	Scans       uint64  `json:"scans,omitempty"`
	ScanAvgMs   float64 `json:"scan_avg_ms,omitempty"`

	// Against a server: client-side retries and the server's admission
	// counters. MPL is then the server's admission cap (0 = uncapped).
	Connections       int     `json:"connections,omitempty"`
	Retries           uint64  `json:"retries,omitempty"`
	Admitted          uint64  `json:"admitted,omitempty"`
	QueueFullRefusals uint64  `json:"queue_full_refusals,omitempty"`
	QueueTimeouts     uint64  `json:"queue_timeouts,omitempty"`
	QueueWaitMs       float64 `json:"queue_wait_ms,omitempty"`
}

// Instance is a row loaded into a fresh database.
type Instance struct {
	DB         *ssidb.DB
	Txn        harness.TxnFunc
	Background harness.TxnFunc // nil unless the row has one
	dir        string
}

// Close closes the database and removes its WAL directory, if any.
func (in *Instance) Close() {
	in.DB.Close()
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// Open loads s into a fresh database for iso, with shards on the row's
// axis (0 keeps the row's own setting) and, if durable, a real WAL in a new
// temporary directory — never a previous cell's, whose replay would pollute
// both the data and the WAL counters.
func (s Scenario) Open(iso ssidb.Isolation, shards int, durable bool) (*Instance, error) {
	opts := s.Options
	switch {
	case shards == 0:
	case s.ShardTables:
		opts.TableShards = shards
	default:
		opts.LockShards = shards
	}
	in := &Instance{}
	if durable {
		dir, err := os.MkdirTemp("", "ssibench-wal-")
		if err != nil {
			return nil, err
		}
		in.dir = dir
		if in.DB, err = ssidb.OpenDir(dir, opts); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	} else {
		in.DB = ssidb.Open(opts)
	}
	txn, err := s.Build(in.DB, iso)
	if err == nil && s.Programs != nil {
		_, err = s.Programs(in.DB)
	}
	if err != nil {
		in.Close()
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	in.Txn = txn
	if s.Background != nil {
		in.Background = s.Background(in.DB, iso)
	}
	return in, nil
}

// Measure loads s once for c's isolation, shard count and durability, then
// measures one cell per MPL on it in order: the paper's sweep up the MPL
// axis on one database. With c.Addr set it loads the server at that address
// through s.Remote instead, and each MPL is a connection count.
func Measure(s Scenario, c Config, mpls []int) ([]Cell, error) {
	if c.Addr != "" {
		return measureRemote(s, c, mpls)
	}
	in, err := s.Open(c.Iso, c.Shards, c.Durable)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	var cells []Cell
	for _, mpl := range mpls {
		var base ssidb.Stats
		res := harness.Run(in.Txn, harness.Options{
			MPL: mpl, Duration: c.Duration, Warmup: c.Warmup, Trials: c.Trials, Seed: 1,
			Background:     in.Background,
			OnMeasureStart: func() { base = in.DB.StatsSnapshot() },
		})
		if res.Err != nil {
			return nil, fmt.Errorf("%s %s mpl=%d: %w", s.Name, c.Iso, mpl, res.Err)
		}
		res.Isolation = c.Iso
		cell := newCell(res)
		cell.Shards = c.Shards
		cell.Durable = c.Durable
		cell.addStats(in.DB.StatsSnapshot(), base)
		if s.Background != nil {
			cell.WriterP50Us, cell.WriterP99Us, cell.WriterMaxUs = cell.P50Us, cell.P99Us, cell.MaxUs
			cell.Scans = res.Background.Commits
			cell.ScanAvgMs = float64(res.BackgroundLatency.Mean()) / float64(time.Millisecond)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func newCell(res harness.Result) Cell {
	return Cell{
		Iso:       res.Isolation.String(),
		MPL:       res.MPL,
		TPS:       res.TPS,
		CI95:      res.TPSCI95,
		Commits:   res.Commits,
		Deadlocks: res.Deadlocks,
		Conflicts: res.Conflicts,
		Unsafe:    res.Unsafe,
		Timeouts:  res.Timeouts,
		Rollbacks: res.Rollbacks,
		P50Us:     micros(res.Latency.Quantile(0.50)),
		P99Us:     micros(res.Latency.Quantile(0.99)),
		P999Us:    micros(res.Latency.Quantile(0.999)),
		MaxUs:     micros(res.Latency.Quantile(1)),
	}
}

// addStats fills the engine counters with their growth from base to after.
func (c *Cell) addStats(after, base ssidb.Stats) {
	c.LockWaits = after.LockWaits - base.LockWaits
	c.LockSpinGrants = after.LockSpinGrants - base.LockSpinGrants
	c.LockParks = after.LockParks - base.LockParks
	c.LockWakeups = after.LockWakeups - base.LockWakeups
	c.LockWaitMs = float64(after.LockWaitTime-base.LockWaitTime) / float64(time.Millisecond)
	c.LockedKeys = after.LockedKeys
	c.ROBegins = after.ROBegins - base.ROBegins
	c.ROPromotions = after.ROSafePromotions - base.ROSafePromotions
	c.ROSkips = after.ROSIReadSkips - base.ROSIReadSkips
	c.ProgramRuns = after.ProgramRuns - base.ProgramRuns
	c.ProgramSIRuns = after.ProgramSIRuns - base.ProgramSIRuns
	c.FootprintViolations = after.FootprintViolations - base.FootprintViolations
	c.SDGEscalations = after.SDGEscalations - base.SDGEscalations
	c.WALAppends = after.WALAppends - base.WALAppends
	c.GroupCommitBatches = after.GroupCommitBatches - base.GroupCommitBatches
	c.Fsyncs = after.Fsyncs - base.Fsyncs
	if c.GroupCommitBatches > 0 {
		c.AvgBatchSize = float64(c.WALAppends) / float64(c.GroupCommitBatches)
	}
}
