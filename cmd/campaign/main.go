// Command campaign runs, resumes, inspects and gates persistent
// tool×program benchmark campaigns (internal/campaign): the layer that
// turns the repository's experiments into a benchmark others can run,
// extend and regress against.
//
// Usage:
//
//	campaign run -store out.jsonl                      # default fixed-seed matrix
//	campaign run -store out.jsonl -programs account,semleak -finders fuzz,noise \
//	             -seeds 0,1 -budget 1000 -workers 4 -timing
//	campaign resume -store out.jsonl                   # finish an interrupted campaign
//	campaign show -store out.jsonl [-csv|-json]        # render the stored matrix
//	campaign compare -baseline a.jsonl -current b.jsonl [-slack 1.5] [-gate]
//	campaign gate -baseline campaign/baseline.jsonl -store current.jsonl
//
// `run` starts fresh (truncating the store); `resume` continues an
// existing store under its pinned config, skipping completed cells.
// `gate` re-runs the baseline's own config into -store and exits
// non-zero when any finder lost a bug, exceeded its budget envelope,
// or a baseline cell is missing — the CI regression gate.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"mtbench/internal/campaign"
	"mtbench/internal/profiling"
	"mtbench/internal/report"
	"mtbench/internal/repository"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Profiling spans whichever subcommand executes, so heavy campaigns
	// can feed future perf work: campaign run ... -cpuprofile cpu.out.
	// The flags are stripped before subcommand flag parsing.
	args, cpuProfile, memProfile := extractProfileFlags(os.Args[2:])
	stopProf, perr := profiling.Start(cpuProfile, memProfile)
	if perr != nil {
		fmt.Fprintln(os.Stderr, errorLine(perr))
		os.Exit(1)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(args, false)
	case "resume":
		err = cmdRun(args, true)
	case "show":
		err = cmdShow(args)
	case "compare":
		err = cmdCompare(args)
	case "gate":
		err = cmdGate(args)
	case "serve":
		err = cmdServe(args)
	case "work":
		err = cmdWork(args)
	case "status":
		err = cmdStatus(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "campaign: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	stopProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine renders a failed command's error for stderr under a single
// "campaign: " prefix: errors from internal/campaign already carry it.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "campaign: ") {
		return msg
	}
	return "campaign: " + msg
}

// extractProfileFlags strips -cpuprofile/-memprofile (with = or
// space-separated values) from args so subcommand flag sets need not
// know about them.
func extractProfileFlags(args []string) (rest []string, cpu, mem string) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, val, eq := a, "", false
		if j := strings.IndexByte(a, '='); j >= 0 {
			name, val, eq = a[:j], a[j+1:], true
		}
		switch name {
		case "-cpuprofile", "--cpuprofile", "-memprofile", "--memprofile":
			if !eq && i+1 < len(args) {
				i++
				val = args[i]
			}
			if strings.Contains(name, "cpu") {
				cpu = val
			} else {
				mem = val
			}
		default:
			rest = append(rest, a)
		}
	}
	return rest, cpu, mem
}

func usage() {
	fmt.Fprint(os.Stderr, `campaign — persistent, resumable tool×program benchmark matrix

commands:
  run     -store FILE [flags]     execute a campaign into a fresh store
  resume  -store FILE [-workers N] [-timing]
                                  finish an interrupted campaign (skips completed
                                  cells; re-pass -timing if the run used it)
  show    -store FILE [-csv|-json]  render a stored campaign as report tables
  compare -baseline A -current B [-slack F] [-gate] [-csv|-json]
                                  classify per-cell deltas between two stores
  gate    -baseline FILE [-store FILE] [-slack F]
                                  re-run the baseline's config and exit non-zero
                                  on any effectiveness regression (CI gate)
  serve   -store FILE [-listen ADDR] [flags | -config-from FILE]
                                  run the fault-tolerant campaign coordinator:
                                  cells are leased to workers, expired leases
                                  re-queue, poison cells quarantine
  work    -coordinator URL [-name NAME]
                                  join a coordinator's worker fleet
  status  -coordinator URL [-csv|-json]
                                  render a running campaign's service status

registered finders:
`)
	for _, name := range campaign.Finders() {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", name, campaign.FinderDoc(name))
	}
}

// configFlags binds the campaign matrix flags onto fs and returns a
// builder for the resulting config.
func configFlags(fs *flag.FlagSet) func() (campaign.Config, error) {
	finders := fs.String("finders", "", "comma-separated finders (empty = DefaultFinders: "+strings.Join(campaign.DefaultFinders, ",")+")")
	programs := fs.String("programs", "", `comma-separated programs, or "all" for the whole repository (empty = default gate set)`)
	seeds := fs.String("seeds", "", "comma-separated master seeds (empty = 0)")
	budget := fs.Int("budget", 0, "per-cell run/schedule budget (0 = default)")
	maxSteps := fs.Int64("maxsteps", 0, "per-run step bound (0 = default)")
	vbound := fs.Int("vbound", 0, "variable bound for the explore-vb finder (0 = finder default)")
	tbound := fs.Int("tbound", 0, "thread bound for the explore-tb finder (0 = finder default)")
	pctDepth := fs.Int("pctdepth", 0, "targeted bug depth d for the pct finder (0 = finder default)")
	cellTimeout := fs.Duration("celltimeout", 0, "per-cell wall-clock bound; a cell exceeding it records a timeout outcome (0 = none)")
	workers := fs.Int("workers", 1, "parallel cell workers (cells are independent; parallelism never changes results)")
	timing := fs.Bool("timing", false, "record real wall_ms per cell (breaks byte-identical stores)")
	return func() (campaign.Config, error) {
		cfg := campaign.Config{
			Budget:        *budget,
			MaxSteps:      *maxSteps,
			VariableBound: *vbound,
			ThreadBound:   *tbound,
			PCTDepth:      *pctDepth,
			CellTimeout:   *cellTimeout,
			Workers:       *workers,
			Timing:        *timing,
		}
		if *finders != "" {
			cfg.Finders = splitList(*finders)
		}
		switch {
		case *programs == "all":
			for _, p := range repository.All() {
				cfg.Programs = append(cfg.Programs, p.Name)
			}
		case *programs != "":
			cfg.Programs = splitList(*programs)
		}
		if *seeds != "" {
			for _, s := range splitList(*seeds) {
				v, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					return cfg, fmt.Errorf("bad seed %q: %w", s, err)
				}
				cfg.Seeds = append(cfg.Seeds, v)
			}
		}
		return cfg, nil
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// interruptible returns a context canceled by Ctrl-C, so an
// interrupted campaign leaves a valid journal to resume from.
func interruptible() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

func cmdRun(args []string, resume bool) error {
	name := "run"
	if resume {
		name = "resume"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	storePath := fs.String("store", "", "store file (JSONL)")
	quiet := fs.Bool("q", false, "suppress per-cell progress")
	var buildCfg func() (campaign.Config, error)
	var workers *int
	var timing *bool
	var force *bool
	var configFrom *string
	if resume {
		// Execution details are not pinned in the store's meta line, so
		// re-pass them on resume (notably -timing when the original run
		// recorded wall_ms, or resumed cells would record 0).
		workers = fs.Int("workers", 1, "parallel cell workers")
		timing = fs.Bool("timing", false, "record real wall_ms per cell (re-pass if the original run used -timing)")
	} else {
		buildCfg = configFlags(fs)
		force = fs.Bool("force", false, "overwrite an existing store (run refuses otherwise; use resume to continue one)")
		configFrom = fs.String("config-from", "", "copy the campaign config from another store's meta line (matrix flags are ignored)")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" {
		return fmt.Errorf("%s: -store is required", name)
	}
	if !resume && !*force {
		if _, err := os.Stat(*storePath); err == nil {
			return fmt.Errorf("run: %s already exists; `campaign resume -store %s` continues it, -force overwrites it",
				*storePath, *storePath)
		}
	}

	var store *campaign.Store
	var cfg campaign.Config
	if resume {
		var err error
		store, err = campaign.Open(*storePath)
		if err != nil {
			return err
		}
		warnTorn(store)
		cfg = store.Config()
		cfg.Workers = *workers
		cfg.Timing = *timing
	} else {
		var err error
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

	ctx, cancel := interruptible()
	defer cancel()
	sum, err := campaign.Run(ctx, cfg, store, func(done, total int, rec campaign.Record) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, rec)
		}
	})
	if err != nil {
		if ctx.Err() != nil && sum != nil {
			fmt.Fprintf(os.Stderr, "interrupted after %d cells; `campaign resume -store %s` continues\n",
				sum.Executed+sum.Skipped, *storePath)
		}
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign complete: %d cells (%d executed, %d resumed) -> %s\n",
		sum.Cells, sum.Executed, sum.Skipped, *storePath)
	return nil
}

func renderTables(tables []*report.Table, csv, json bool) error {
	return report.WriteTables(os.Stdout, tables, csv, json)
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	storePath := fs.String("store", "", "store file (JSONL)")
	csv := fs.Bool("csv", false, "CSV output")
	jsonOut := fs.Bool("json", false, "JSON output (one array of tables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" {
		return fmt.Errorf("show: -store is required")
	}
	cfg, recs, err := campaign.Load(*storePath)
	if err != nil {
		return err
	}
	return renderTables(campaign.SummaryTables(cfg, recs), *csv, *jsonOut)
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("baseline", "", "baseline store (JSONL)")
	curPath := fs.String("current", "", "current store (JSONL)")
	slack := fs.Float64("slack", 1.0, "budget envelope multiplier over baseline first_bug")
	gate := fs.Bool("gate", false, "exit non-zero when the diff contains regressions")
	csv := fs.Bool("csv", false, "CSV output")
	jsonOut := fs.Bool("json", false, "JSON output (one array of tables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *curPath == "" {
		return fmt.Errorf("compare: -baseline and -current are required")
	}
	_, base, err := campaign.Load(*basePath)
	if err != nil {
		return err
	}
	_, cur, err := campaign.Load(*curPath)
	if err != nil {
		return err
	}
	diff := campaign.Compare(base, cur, *slack)
	if err := renderTables(diff.Tables(), *csv, *jsonOut); err != nil {
		return err
	}
	if *gate {
		return diff.Gate()
	}
	return nil
}

func cmdGate(args []string) error {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	basePath := fs.String("baseline", "campaign/baseline.jsonl", "baseline store (JSONL)")
	storePath := fs.String("store", "", "where to write the current run (empty = temp file)")
	slack := fs.Float64("slack", 1.0, "budget envelope multiplier over baseline first_bug")
	workers := fs.Int("workers", 1, "parallel cell workers")
	force := fs.Bool("force", false, "overwrite an existing -store file (gate refuses otherwise)")
	quiet := fs.Bool("q", false, "suppress per-cell progress")
	if err := fs.Parse(args); err != nil {
		return err
	}

	baseCfg, base, err := campaign.Load(*basePath)
	if err != nil {
		return err
	}
	path := *storePath
	if path == "" {
		path = filepath.Join(os.TempDir(), fmt.Sprintf("campaign-gate-%d.jsonl", os.Getpid()))
		defer os.Remove(path)
	} else if !*force {
		if _, err := os.Stat(path); err == nil {
			return fmt.Errorf("gate: %s already exists; -force overwrites it", path)
		}
	}
	cfg := baseCfg
	cfg.Workers = *workers
	store, err := campaign.Create(path, cfg)
	if err != nil {
		return err
	}
	defer store.Close()

	ctx, cancel := interruptible()
	defer cancel()
	sum, err := campaign.Run(ctx, cfg, store, func(done, total int, rec campaign.Record) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, rec)
		}
	})
	if err != nil {
		return err
	}

	diff := campaign.Compare(base, sum.Records, *slack)
	if err := renderTables(diff.Tables(), false, false); err != nil {
		return err
	}
	if err := diff.Gate(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gate passed: %d cells match %s (slack %.2f)\n", diff.Compared, *basePath, *slack)
	return nil
}
