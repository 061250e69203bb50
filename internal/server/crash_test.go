package server

// Process-level robustness: the real ssiserver entry point (Main) runs in a
// re-execed child process while the parent drives it over TCP.
//
//   - SIGTERM drain: in-flight transactions finish, new ones are refused,
//     the process exits 0 after a clean WAL close, and the data survives.
//   - kill -9 mid-load: the parent records every acknowledged commit; after
//     SIGKILL it reopens the data directory directly and verifies no
//     acknowledged commit lost, no aborted write resurrected, money
//     conserved, and the recovered database serializable under load —
//     the ssidb crash-recovery contract held across the network boundary
//     (the server acknowledges a commit only after the group-commit fsync).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ssi/internal/sercheck"
	"ssi/ssidb"
)

// TestServerChild is the re-exec helper: when the parent sets
// SSISERVER_TEST_DIR it becomes a real ssiserver process (the parent kills
// or signals it); otherwise it skips.
func TestServerChild(t *testing.T) {
	dir := os.Getenv("SSISERVER_TEST_DIR")
	if dir == "" {
		t.Skip("server crash-test helper; driven by the re-exec tests")
	}
	code := Main([]string{
		"-addr", "127.0.0.1:0",
		"-dir", dir,
		"-group-commit-delay", "100us",
		"-lock-wait", "1s",
		"-txn-timeout", "5s",
		"-drain-timeout", "10s",
	})
	if code != 0 {
		t.Fatalf("ssiserver exited %d", code)
	}
}

// startChildServer re-execs the test binary as an ssiserver on dir and
// returns the command, its address (scanned from the LISTENING readiness
// line), and a function that waits for the child to exit and returns the
// rest of its output with the exit error. That function reads the stdout
// pipe to EOF before calling cmd.Wait: Wait closes the pipe, so calling it
// first could drop the child's last lines.
func startChildServer(t *testing.T, dir string) (*exec.Cmd, string, func() (string, error)) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestServerChild$", "-test.v")
	cmd.Env = append(os.Environ(), "SSISERVER_TEST_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	scanner := bufio.NewScanner(stdout)
	addr := ""
	for scanner.Scan() {
		line := scanner.Text()
		if rest, ok := strings.CutPrefix(line, "ssiserver: LISTENING "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("child never reported LISTENING")
	}

	// Keep draining the pipe so the child can never block on a full buffer;
	// the collected tail is checked for the drain/stop lines.
	var mu sync.Mutex
	var rest strings.Builder
	done := make(chan struct{})
	go func() {
		defer close(done)
		for scanner.Scan() {
			mu.Lock()
			rest.WriteString(scanner.Text())
			rest.WriteByte('\n')
			mu.Unlock()
		}
	}()
	return cmd, addr, func() (string, error) {
		<-done
		err := cmd.Wait()
		mu.Lock()
		defer mu.Unlock()
		return rest.String(), err
	}
}

func be64(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func TestSIGTERMDrainExitsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec drain test")
	}
	dir := t.TempDir()
	cmd, addr, wait := startChildServer(t, dir)
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 10 * time.Second
	if _, err := c.Do(ssidb.SerializableSI, false, []Op{
		{Type: OpPut, Table: "t", Key: []byte("committed"), Val: []byte("before")},
	}); err != nil {
		t.Fatal(err)
	}

	// An interactive transaction is mid-flight when the signal lands.
	tx, err := c.Begin(ssidb.SerializableSI, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("t", []byte("inflight"), []byte("during")); err != nil {
		t.Fatal(err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the drain begin

	// The draining server refuses new transactions on the live session...
	if _, err := c.Do(ssidb.SerializableSI, false, []Op{
		{Type: OpPut, Table: "t", Key: []byte("late"), Val: []byte("x")},
	}); err == nil {
		t.Fatal("new transaction admitted during drain")
	}
	// ...but the in-flight one commits durably.
	if err := tx.Commit(); err != nil {
		t.Fatalf("in-flight commit during drain: %v", err)
	}

	tail, err := wait()
	if err != nil {
		t.Fatalf("ssiserver did not exit 0 after SIGTERM: %v\n%s", err, tail)
	}
	if !strings.Contains(tail, "draining") || !strings.Contains(tail, "ssiserver: STOPPED") {
		t.Fatalf("missing drain/stop lines in child output:\n%s", tail)
	}

	// Both writes survived the clean shutdown.
	db, err := ssidb.OpenDir(dir, ssidb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		for _, key := range []string{"committed", "inflight"} {
			if _, ok, err := tx.Get("t", []byte(key)); err != nil || !ok {
				t.Errorf("key %q lost across drain (found=%v err=%v)", key, ok, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

const (
	netCrashAccounts = 16
	netCrashWorkers  = 4
	netCrashInitial  = 1000
)

func netAcctKey(i int) []byte { return []byte(fmt.Sprintf("a%02d", i)) }

func TestKill9RecoveryOverNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash test")
	}
	dir := t.TempDir()
	cmd, addr, _ := startChildServer(t, dir)
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Seed accounts and per-worker commit counters through the server.
	ctl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Timeout = 10 * time.Second
	var load []Op
	for i := 0; i < netCrashAccounts; i++ {
		load = append(load, Op{Type: OpPut, Table: "acct", Key: netAcctKey(i), Val: be64(netCrashInitial)})
	}
	for w := 0; w < netCrashWorkers; w++ {
		load = append(load, Op{Type: OpPut, Table: "ctr", Key: []byte(fmt.Sprintf("w%d", w)), Val: be64(0)})
	}
	if _, err := ctl.Do(ssidb.SnapshotIsolation, false, load); err != nil {
		t.Fatal(err)
	}
	ctl.Close()

	// Workers drive money transfers; acked[w] is the highest sequence number
	// whose commit the server acknowledged — by the durability contract the
	// acknowledgement happened after the fsync, so it must survive SIGKILL.
	var acked [netCrashWorkers]atomic.Int64
	var totalAcks atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < netCrashWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				return
			}
			defer cl.Close()
			cl.Timeout = 5 * time.Second
			r := rand.New(rand.NewSource(int64(w)*6151 + 7))
			ctrKey := []byte(fmt.Sprintf("w%d", w))
			for i := 0; !stop.Load(); i++ {
				if i%8 == 7 {
					// Deliberate rollback: this write must never survive.
					if tx, err := cl.Begin(ssidb.SerializableSI, false); err == nil {
						tx.Put("poison", []byte(fmt.Sprintf("p%d-%d", w, i)), []byte("boom"))
						if tx.Abort() != nil {
							return
						}
					}
					continue
				}
				from, to := r.Intn(netCrashAccounts), r.Intn(netCrashAccounts)
				if from == to {
					to = (to + 1) % netCrashAccounts
				}
				amt := int64(1 + r.Intn(5))
				ops := []Op{
					{Type: OpAdd, Table: "ctr", Key: ctrKey, Delta: 1},
					{Type: OpAdd, Table: "acct", Key: netAcctKey(from), Delta: -amt},
					{Type: OpAdd, Table: "acct", Key: netAcctKey(to), Delta: amt},
				}
				var res []OpResult
				var derr error
				for attempt := 0; ; attempt++ {
					res, derr = cl.Do(ssidb.SerializableSI, false, ops)
					if derr == nil || !Retryable(derr) {
						break
					}
					time.Sleep(time.Duration(r.Intn(200)) * time.Microsecond)
				}
				if derr != nil {
					return // transport failure: the server is gone
				}
				acked[w].Store(res[0].Added)
				totalAcks.Add(1)
			}
		}(w)
	}

	// Hard kill mid-workload once enough commits are acknowledged.
	deadline := time.Now().Add(30 * time.Second)
	for totalAcks.Load() < 150 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	cmd.Process.Kill() // SIGKILL: no flush, no drain path
	cmd.Wait()
	stop.Store(true)
	wg.Wait()
	if totalAcks.Load() == 0 {
		t.Fatal("no commits acknowledged before kill")
	}

	// Reopen the directory directly and verify the recovered state.
	hist := sercheck.NewHistory()
	db, err := ssidb.OpenDir(dir, ssidb.Options{Recorder: hist, CheckpointBytes: -1})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer db.Close()

	readI64 := func(tx *ssidb.Txn, table string, key []byte) (int64, bool, error) {
		v, ok, err := tx.Get(table, key)
		if err != nil || !ok {
			return 0, ok, err
		}
		return int64(binary.BigEndian.Uint64(v)), true, nil
	}
	if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		var total int64
		for i := 0; i < netCrashAccounts; i++ {
			v, ok, err := readI64(tx, "acct", netAcctKey(i))
			if err != nil {
				return err
			}
			if !ok {
				t.Errorf("account %d lost", i)
			}
			total += v
		}
		if want := int64(netCrashAccounts * netCrashInitial); total != want {
			t.Errorf("money not conserved: recovered %d, want %d", total, want)
		}
		for w := 0; w < netCrashWorkers; w++ {
			v, ok, err := readI64(tx, "ctr", []byte(fmt.Sprintf("w%d", w)))
			if err != nil {
				return err
			}
			if !ok {
				t.Errorf("worker %d counter lost", w)
			} else if v < acked[w].Load() {
				t.Errorf("worker %d: acknowledged commit lost: recovered %d < acked %d", w, v, acked[w].Load())
			}
		}
		return tx.Scan("poison", nil, nil, func(k, v []byte) bool {
			t.Errorf("aborted write resurrected: %q", k)
			return false
		})
	}); err != nil {
		t.Fatal(err)
	}

	// The recovered database is fully usable and serializable under load.
	var postWG sync.WaitGroup
	for w := 0; w < netCrashWorkers; w++ {
		postWG.Add(1)
		go func(w int) {
			defer postWG.Done()
			r := rand.New(rand.NewSource(int64(3000 + w)))
			for j := 0; j < 30; j++ {
				from, to := r.Intn(netCrashAccounts), r.Intn(netCrashAccounts)
				if from == to {
					continue
				}
				db.RunRetry(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
					fv, _, err := readI64(tx, "acct", netAcctKey(from))
					if err != nil {
						return err
					}
					tv, _, err := readI64(tx, "acct", netAcctKey(to))
					if err != nil {
						return err
					}
					if err := tx.Put("acct", netAcctKey(from), be64(fv-1)); err != nil {
						return err
					}
					return tx.Put("acct", netAcctKey(to), be64(tv+1))
				})
			}
		}(w)
	}
	postWG.Wait()
	if ok, cyc := hist.Serializable(); !ok {
		t.Fatalf("post-recovery history not serializable: cycle %v", cyc)
	}
	if st := db.StatsSnapshot(); st.RecoveryReplayed == 0 {
		t.Fatalf("no WAL records replayed after kill -9; stats %+v", st)
	}
}
