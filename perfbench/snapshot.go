package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"syscall"
	"time"

	"ssi/internal/server"
	"ssi/ssidb"
)

// snapshot is every public counter the benchmark reads at a window edge.
type snapshot struct {
	at     time.Time
	cpu    time.Duration // process user+sys
	maxRSS float64       // peak resident set, MiB
	db     ssidb.Stats
	dead   int64  // superseded versions awaiting vacuum, all tables
	visits uint64 // vacuum key visits, all tables
	srv    server.Stats
	adm    server.AdmissionStats
	rt     []metrics.Sample
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func (inst *instance) snap() snapshot {
	s := snapshot{at: time.Now(), db: inst.db.StatsSnapshot()}
	s.cpu, s.maxRSS = rusage()
	for _, t := range inst.tables {
		ts := inst.db.TableStats(t)
		s.dead += ts.DeadVersions
		s.visits += ts.VacuumKeyVisits
	}
	if inst.srv != nil {
		s.srv, s.adm, _ = inst.srv.StatsSnapshot()
	}
	s.rt = make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s.rt[i].Name = name
	}
	metrics.Read(s.rt)
	return s
}

// rusage returns the process's user+sys CPU time and its peak resident set
// in MiB.
func rusage() (time.Duration, float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (s snapshot) rtUint(i int) float64 {
	if s.rt[i].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s.rt[i].Value.Uint64())
}

// schedP99 is the 99th percentile of goroutine scheduling latency between
// two snapshots, in µs: the upper edge of the histogram bucket it falls in.
func schedP99(a, b snapshot) float64 {
	i := len(runtimeMetrics) - 1
	if a.rt[i].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	ha, hb := a.rt[i].Value.Float64Histogram(), b.rt[i].Value.Float64Histogram()
	var total uint64
	d := make([]uint64, len(hb.Counts))
	for j := range d {
		d[j] = hb.Counts[j] - ha.Counts[j]
		total += d[j]
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total)*0.99 + 0.5)
	var cum uint64
	for j, c := range d {
		cum += c
		if cum >= want {
			edge := hb.Buckets[j+1]
			if math.IsInf(edge, 1) {
				edge = hb.Buckets[j]
			}
			return edge * 1e6
		}
	}
	return 0
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
