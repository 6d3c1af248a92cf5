// The distributed subcommands: `serve` runs the fault-tolerant
// coordinator (internal/campsvc) over a campaign store, `work` joins
// its worker fleet from any machine that can reach it, and `status`
// renders a running campaign's lease/worker state. Together they are
// the multi-machine form of `campaign run` — same cells, same
// finders, and (for clean fixed-seed campaigns) a byte-identical
// store.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"mtbench/internal/campaign"
	"mtbench/internal/campsvc"
)

// stderrLogf is the non-quiet service log sink.
func stderrLogf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// loadConfigFrom copies the campaign identity from another store's
// meta line onto cfg, keeping cfg's execution details (Workers,
// Timing). This is how a distributed campaign is pinned to exactly
// the matrix of an existing baseline: identical fingerprints,
// comparable (and byte-comparable) stores.
func loadConfigFrom(path string, cfg campaign.Config) (campaign.Config, error) {
	loaded, _, err := campaign.Load(path)
	if err != nil {
		return cfg, err
	}
	loaded.Workers = cfg.Workers
	loaded.Timing = cfg.Timing
	return loaded, nil
}

// warnTorn surfaces a recovered torn journal tail.
func warnTorn(store *campaign.Store) {
	if n := store.TornBytes(); n > 0 {
		fmt.Fprintf(os.Stderr, "warning: discarded %d bytes of torn journal tail (a crashed append); the interrupted cell re-runs\n", n)
	}
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	storePath := fs.String("store", "", "store file (JSONL); an existing store is resumed under its pinned config")
	listen := fs.String("listen", "127.0.0.1:8347", "listen address")
	configFrom := fs.String("config-from", "", "copy the campaign config from another store's meta line (matrix flags are ignored)")
	leaseTTL := fs.Duration("lease-ttl", campsvc.DefaultLeaseTTL, "how long a lease lives without a heartbeat")
	maxAttempts := fs.Int("max-attempts", campsvc.DefaultMaxAttempts, "lease attempts before a poison cell is quarantined")
	exitWhenDone := fs.Bool("exit-when-done", false, "exit once every cell is settled (default: keep serving status until interrupted)")
	linger := fs.Duration("linger", 3*time.Second, "with -exit-when-done, keep serving this long after completion so polling workers see done")
	quiet := fs.Bool("q", false, "suppress per-transition logs")
	buildCfg := configFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" {
		return fmt.Errorf("serve: -store is required")
	}

	var store *campaign.Store
	var cfg campaign.Config
	if _, err := os.Stat(*storePath); err == nil {
		store, err = campaign.Open(*storePath)
		if err != nil {
			return err
		}
		warnTorn(store)
		cfg = store.Config()
	} else {
		cfg, err = buildCfg()
		if err != nil {
			return err
		}
		if *configFrom != "" {
			if cfg, err = loadConfigFrom(*configFrom, cfg); err != nil {
				return err
			}
		}
		store, err = campaign.Create(*storePath, cfg)
		if err != nil {
			return err
		}
	}
	defer store.Close()

	opts := campsvc.CoordinatorOptions{LeaseTTL: *leaseTTL, MaxAttempts: *maxAttempts}
	if !*quiet {
		opts.Logf = stderrLogf
	}
	coord, err := campsvc.NewCoordinator(cfg, store, opts)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// A lease, heartbeat or complete round trip takes milliseconds; the
	// timeouts sit orders of magnitude above that and only stop a stalled
	// or silent client from pinning a connection (and its goroutine)
	// forever. Idle keep-alive connections outlive the default heartbeat
	// interval (a third of the lease TTL).
	srv := &http.Server{
		Handler:           campsvc.Handler(coord),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go srv.Serve(ln)
	st := coord.Status()
	fmt.Fprintf(os.Stderr, "campaign service: %d cells (%d already done) on http://%s -> %s\n",
		st.Cells, st.Done, ln.Addr(), *storePath)

	ctx, cancel := interruptible()
	defer cancel()
	select {
	case <-ctx.Done():
		// Interrupted: leases die with the process but the journal is
		// durable — re-serving the same store resumes the campaign.
		srv.Close()
		fmt.Fprintf(os.Stderr, "interrupted; `campaign serve -store %s` resumes\n", *storePath)
		return nil
	case <-coord.Done():
		final := coord.Status()
		fmt.Fprintf(os.Stderr, "campaign complete: %d cells (%d quarantined) -> %s\n",
			final.Cells, final.Quarantined, *storePath)
		if *exitWhenDone {
			time.Sleep(*linger)
		} else {
			fmt.Fprintln(os.Stderr, "serving status until interrupted (-exit-when-done exits instead)")
			<-ctx.Done()
		}
		srv.Close()
		return coord.Wait(context.Background()) // surfaces a failed final compaction
	}
}

func cmdWork(args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	coordinator := fs.String("coordinator", "http://127.0.0.1:8347", "coordinator base URL")
	name := fs.String("name", "", "worker name (default host-pid)")
	backoff := fs.Duration("backoff", 500*time.Millisecond, "base retry backoff against an unreachable coordinator")
	giveUp := fs.Duration("give-up-after", 0, "give up when the coordinator stays unreachable this long (0 = never)")
	throttle := fs.Duration("throttle", 0, "pause between leases (pacing on shared machines; 0 = none)")
	quiet := fs.Bool("q", false, "suppress per-lease logs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	opts := campsvc.WorkerOptions{
		Name:        *name,
		Transport:   &campsvc.Client{Base: *coordinator},
		Backoff:     *backoff,
		GiveUpAfter: *giveUp,
		Throttle:    *throttle,
	}
	if !*quiet {
		opts.Logf = stderrLogf
	}
	ctx, cancel := interruptible()
	defer cancel()
	stats, err := campsvc.Work(ctx, opts)
	fmt.Fprintf(os.Stderr, "worker %s: %d completed, %d duplicate, %d failed, %d abandoned\n",
		*name, stats.Completed, stats.Duplicates, stats.Failures, stats.Abandoned)
	return err
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	coordinator := fs.String("coordinator", "http://127.0.0.1:8347", "coordinator base URL")
	csv := fs.Bool("csv", false, "CSV output")
	jsonOut := fs.Bool("json", false, "JSON output (one array of tables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := &campsvc.Client{Base: *coordinator, HTTP: &http.Client{Timeout: 10 * time.Second}}
	st, err := client.Status(context.Background())
	if err != nil {
		return err
	}
	return renderTables(st.Tables(), *csv, *jsonOut)
}
