// The daemon smoke suite: builds the real plannerd binary, drives it over
// HTTP, kills it without warning and restarts it from its snapshot — the
// serving analogue of the emulation determinism tests.  Run via
// `make test-daemon`; daemon output lands in testlogs/ so CI can attach it
// to failures.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"greencloud/internal/emul"
	"greencloud/internal/lp"
	"greencloud/internal/plan"
)

// buildPlannerd compiles the binary once per test run.
func buildPlannerd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "plannerd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// logFile opens testlogs/<name> at the repository root (the directory the
// CI workflow uploads on failure).
func logFile(t *testing.T, name string) *os.File {
	t.Helper()
	dir := filepath.Join("..", "..", "testlogs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// daemonProc is one running plannerd incarnation.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

// startDaemon launches the binary and waits for its listening sentinel.
func startDaemon(t *testing.T, bin, snapshot, logName string) *daemonProc {
	t.Helper()
	lf := logFile(t, logName)
	cmd := exec.Command(bin, "-snapshot", snapshot)
	cmd.Stderr = lf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	addrc := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(lf, line)
			if rest, ok := strings.CutPrefix(line, "plannerd: listening on "); ok {
				addrc <- rest
			}
		}
	}()
	select {
	case addr := <-addrc:
		return &daemonProc{cmd: cmd, addr: addr, log: lf}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("plannerd never announced its address")
		return nil
	}
}

func (p *daemonProc) url(path string) string { return "http://" + p.addr + path }

// kill sends SIGKILL — an unclean crash, the hardest restart case.
func (p *daemonProc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
	p.log.Close()
}

// stop shuts the daemon down cleanly via SIGTERM.
func (p *daemonProc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		t.Error("plannerd ignored SIGTERM")
	}
	p.log.Close()
}

func (p *daemonProc) tick(t *testing.T) plan.PlanView {
	t.Helper()
	resp, err := http.Post(p.url("/tick"), "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /tick: status %d", resp.StatusCode)
	}
	var view plan.PlanView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func (p *daemonProc) plan(t *testing.T) plan.PlanView {
	t.Helper()
	resp, err := http.Get(p.url("/plan"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view plan.PlanView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func stripRecords(recs []emul.HourRecord) []emul.HourRecord {
	out := append([]emul.HourRecord(nil), recs...)
	for i := range out {
		out[i].SchedulerNanos = 0
	}
	return out
}

// TestDaemonSmoke is the CI daemon-smoke suite: 6 ticks over HTTP must be
// bit-identical to a batch emul.Runner over the same trace; a SIGKILL halfway
// must lose nothing — the restarted daemon resumes from its snapshot, warm,
// and finishes the stream with the exact same answers.
func TestDaemonSmoke(t *testing.T) {
	const hours, split = 6, 3

	// Batch reference: the same default trace, stepped in-process.
	cfg, _, err := plan.TraceSpec{}.Build()
	if err != nil {
		t.Fatal(err)
	}
	runner, err := emul.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Start(); err != nil {
		t.Fatal(err)
	}
	batch := make([][]emul.HourRecord, 0, hours)
	batchLP := make([]lp.Stats, 0, hours)
	for i := 0; i < hours; i++ {
		tick, err := runner.Step()
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, stripRecords(tick.Records))
		stats := tick.LPStats
		stats.PresolveNanos = 0
		batchLP = append(batchLP, stats)
	}

	bin := buildPlannerd(t)
	snapshot := filepath.Join(t.TempDir(), "plan.snap")

	// First incarnation: 3 ticks, then SIGKILL.
	p1 := startDaemon(t, bin, snapshot, "plannerd-1.log")
	var lastView plan.PlanView
	for i := 0; i < split; i++ {
		lastView = p1.tick(t)
		got := stripRecords(lastView.LastRecords)
		for j := range got {
			if got[j] != batch[i][j] {
				t.Fatalf("tick %d record %d: daemon %+v, batch %+v", i, j, got[j], batch[i][j])
			}
		}
		if lastView.CumLPStats.ColdFallbacks != 0 {
			t.Fatalf("tick %d: %d cold fallbacks", i, lastView.CumLPStats.ColdFallbacks)
		}
	}
	p1.kill(t)

	// Second incarnation: resumes from the snapshot the crash left behind.
	p2 := startDaemon(t, bin, snapshot, "plannerd-2.log")
	defer p2.stop(t)
	resumed := p2.plan(t)
	if !resumed.Resumed || !resumed.WarmResume {
		t.Fatalf("restart: resumed=%v warm=%v, want true/true", resumed.Resumed, resumed.WarmResume)
	}
	if resumed.Tick != split {
		t.Fatalf("restart resumed at tick %d, want %d", resumed.Tick, split)
	}
	if resumed.Totals != lastView.Totals {
		t.Fatalf("restart totals %+v, want %+v", resumed.Totals, lastView.Totals)
	}
	for i := split; i < hours; i++ {
		view := p2.tick(t)
		// The first post-restart solve (and all later ones) must be warm:
		// warm from the journaled basis, it does exactly the LP work the
		// batch runner's carried basis does.
		stats := view.LastLPStats
		stats.PresolveNanos = 0
		if stats.ColdFallbacks != 0 || stats != batchLP[i] {
			t.Fatalf("post-restart tick %d LP work %+v, batch did %+v", i, stats, batchLP[i])
		}
		got := stripRecords(view.LastRecords)
		for j := range got {
			if got[j] != batch[i][j] {
				t.Fatalf("post-restart tick %d record %d: daemon %+v, batch %+v", i, j, got[j], batch[i][j])
			}
		}
	}

	// The serving side stays responsive throughout.
	resp, err := http.Get(p2.url("/healthz"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
}
