package main

// The campaign service subcommand: `zhuyi serve` binds the HTTP API of
// internal/server to a listener, with graceful drain on SIGINT/SIGTERM
// — in-flight campaign streams finish (up to a drain timeout) before
// the process exits, and the engine's lifetime stats are printed on
// the way out.
//
// With -coordinator, the same subcommand binds the fabric tier instead
// (internal/fabric): campaign points shard across the -replicas worker
// set by consistent hashing, warm queries answer from the shared
// -store manifest, and dead replicas are retried around the ring.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks an ephemeral port)")
	storeDir := fs.String("store", "", "persistent run store: archived points answer from disk, fresh runs are archived")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	drain := fs.Duration("drain", 30*time.Second, "shutdown drain timeout for in-flight requests")
	coordinator := fs.Bool("coordinator", false, "run as a fabric coordinator sharding campaigns across -replicas instead of simulating locally")
	replicas := fs.String("replicas", "", "coordinator mode: comma-separated worker base URLs (e.g. http://10.0.0.1:8080,http://10.0.0.2:8080)")
	stall := fs.Duration("stall-timeout", 60*time.Second, "coordinator mode: per-point completion watchdog; a replica streaming nothing for this long is retried around the ring")
	retries := fs.Int("retries", 0, "coordinator mode: extra replicas offered to a point after its owner fails (0 = up to 2)")
	backoff := fs.Duration("backoff", 200*time.Millisecond, "coordinator mode: base delay before each retry wave")
	fs.Parse(args)

	if *coordinator {
		return serveCoordinator(*addr, *storeDir, *replicas, *stall, *retries, *backoff, *drain)
	}
	if *replicas != "" {
		return fmt.Errorf("serve: -replicas requires -coordinator")
	}

	// Campaign responses stream summaries, never traces, so the service
	// engine records at summary level; with a store attached the engine
	// upgrades archivable points back to full.
	opts, closeStore, err := engineOptions(*storeDir, *workers, trace.LevelSummary)
	if err != nil {
		return err
	}
	defer closeStore()
	// One admission gate shared by the engine's campaign workers and
	// the server's rate path: workers yield between jobs while a rate
	// request is in flight, so batch traffic cannot starve the
	// latency-sensitive endpoint.
	gate := admission.NewGate(0)
	opts.Admission = gate
	eng := engine.New(opts)
	defer eng.Close()
	srv := server.New(server.Options{Engine: eng, Admission: gate})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	storeNote := "none"
	if *storeDir != "" {
		storeNote = *storeDir
	}
	// The "listening on" line is machine-read by the CI server smoke to
	// discover the bound port; keep its shape stable.
	fmt.Printf("zhuyi serve: listening on http://%s (workers %d, store %s)\n",
		ln.Addr(), eng.Workers(), storeNote)

	if err := serveUntilSignal(ln, srv.Handler(), *drain); err != nil {
		return err
	}
	// The HTTP drain above settled in-flight requests; now flush the
	// asynchronous archive queue so every fresh run this process
	// produced is on disk before the final stats print and exit.
	eng.Drain()
	st := eng.Stats()
	fmt.Printf("zhuyi serve: done — %d fresh simulations, %d memory hits, %d disk hits, %d archived\n",
		st.Executed, st.CacheHits, st.DiskHits, st.Archived)
	return nil
}

// serveCoordinator runs the fabric tier: shared-store warm answers,
// cold fan-out to the replica set.
func serveCoordinator(addr, storeDir, replicas string, stall time.Duration, retries int, backoff time.Duration, drain time.Duration) error {
	urls := splitList(replicas)
	if len(urls) == 0 {
		return fmt.Errorf("serve: -coordinator requires -replicas URL[,URL...]")
	}
	var st *store.Store
	if storeDir != "" {
		var err error
		st, err = store.Open(storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
	}
	coord, err := fabric.New(fabric.Options{
		Replicas:     urls,
		Store:        st,
		StallTimeout: stall,
		Retries:      retries,
		Backoff:      backoff,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	storeNote := "none"
	if storeDir != "" {
		storeNote = storeDir
	}
	// Same machine-read shape as worker mode, plus the replica count so
	// the fabric smoke can assert what it started.
	fmt.Printf("zhuyi serve: listening on http://%s (coordinator, %d replicas, store %s)\n",
		ln.Addr(), len(urls), storeNote)

	if err := serveUntilSignal(ln, coord.Handler(), drain); err != nil {
		return err
	}
	es := coord.Ring()
	fmt.Printf("zhuyi serve: coordinator done — %d replicas\n", len(es.Replicas()))
	return nil
}

// Connection timeouts of the HTTP server. readHeaderTimeout bounds how
// long a client may take to send its request header, so slow or stalled
// clients cannot hold connections open indefinitely; idleTimeout bounds
// keep-alive connections between requests. There is deliberately no
// write timeout: /v1/campaign and /v1/search stream NDJSON for as long
// as a campaign runs.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the handler in the server both serve modes run.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serveUntilSignal serves the handler until SIGINT/SIGTERM, then
// drains in-flight requests for up to the drain timeout.
func serveUntilSignal(ln net.Listener, h http.Handler, drain time.Duration) error {
	hs := newHTTPServer(h)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		// Graceful drain: stop accepting, let in-flight campaign
		// streams complete, then close.
		stop()
		fmt.Println("zhuyi serve: shutting down, draining in-flight requests")
		dctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := hs.Shutdown(dctx); err != nil {
			return fmt.Errorf("serve: drain: %w", err)
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fmt.Errorf("serve: %w", err)
		}
	}
	return nil
}
