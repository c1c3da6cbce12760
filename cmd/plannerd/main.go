// Command plannerd is the continuous-planning daemon: it keeps a live
// follow-the-renewables plan for an emulated datacenter network, re-planning
// warm on every streamed hour and serving the result over HTTP/JSON.
//
// Usage:
//
//	plannerd [-addr 127.0.0.1:0] [-snapshot plan.snap] [trace flags]
//
// The daemon prints "plannerd: listening on ADDR" on standard output once
// the API is up (with -addr port 0 this is how callers learn the bound
// port), then serves:
//
//	GET  /plan    — the current plan and cumulative statistics
//	POST /tick    — feed the next trace hour (optionally with streamed
//	                weather updates), returns the re-planned state
//	POST /whatif  — price a hypothetical siting in an interactive session
//	GET  /healthz — liveness
//
// With -snapshot, the file is the daemon's tick journal: a header line
// ("GNPJ1" and the trace digest) followed by one length-framed, CRC-32C
// checksummed binary record per tick — its streamed weather changes,
// migration schedule, solver statistics, plan summary and warm basis.  A
// tick appends one record with one write(2), so persistence costs the same
// at tick 10 and tick 10000.  On startup the daemon replays the records (no
// LP work), rebuilds the /plan view from them and resumes: the plan stream
// continues bit-identically to an uninterrupted daemon and the first
// post-restart solve starts warm from the journaled basis.  A record cut
// short or failing its checksum — a crash mid-append — is a torn tail: it
// and everything after it is truncated and the daemon resumes at the last
// whole record.  A file with a missing or damaged header, another trace's
// digest, or the old GNPS1 snapshot format is logged and replaced by a
// fresh journal, and the daemon starts cold.  Appends are not fsynced: a
// process crash loses nothing, a host crash may lose the last records the
// kernel had not written back.  SIGINT/SIGTERM shut down cleanly:
// in-flight requests finish, new work is refused.
//
// Request bodies are capped at 1 MiB (413 beyond), and the server bounds
// how long a client may take to send a request and how long an idle
// keep-alive connection is held.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"greencloud/internal/plan"
)

// Server timeouts.  A request's header and body are tiny, so the read
// bounds only cut off stalled or trickling clients; the idle bound is long
// enough that a client ticking hourly, or a benchmark pausing between
// phases, keeps its keep-alive connection.  There is no write timeout: a
// /tick response waits on the solve, which the trace's LP budget bounds.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Hour
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "plannerd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
		snapshot = flag.String("snapshot", "", "tick journal: appended to after every tick, resumed from on start")
		spec     plan.TraceSpec
	)
	flag.IntVar(&spec.Sites, "sites", 0, "location catalog size (0 = default)")
	flag.Int64Var(&spec.Seed, "seed", 0, "catalog seed (0 = default)")
	flag.IntVar(&spec.Datacenters, "datacenters", 0, "datacenter count (0 = default)")
	flag.IntVar(&spec.VMs, "vms", 0, "HPC fleet size (0 = default)")
	flag.IntVar(&spec.StartHour, "start-hour", 0, "trace start hour (0 = default)")
	flag.IntVar(&spec.HorizonHours, "horizon", 0, "prediction horizon hours (0 = default)")
	flag.Int64Var(&spec.LPTimeoutMS, "lp-timeout-ms", 0, "per-tick LP budget in ms (0 = default)")
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d, err := plan.New(plan.Config{
		Trace:        spec,
		SnapshotPath: *snapshot,
		Ctx:          ctx,
		Logf:         logger.Printf,
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := d.Close(); err != nil {
			logger.Printf("closing snapshot %s: %v", *snapshot, err)
		}
	}()
	if resumed, warm := d.Resumed(); resumed {
		logger.Printf("resumed from snapshot %s at tick %d (warm=%v)", *snapshot, d.PlanView().Tick, warm)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The sentinel line the smoke harness (and any supervisor) parses to
	// learn the bound address; keep it stable.
	fmt.Printf("plannerd: listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	srv := &http.Server{
		Handler:           d.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		logger.Printf("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return err
		}
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
