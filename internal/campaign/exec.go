// Single-cell execution with guard rails: the one code path every
// cell goes through, whether the pool lives in this process
// (campaign.Run) or on a fleet (internal/campsvc workers). The guard
// rails are what make a campaign robust to its own finders — a finder
// that panics becomes a "panic:" record instead of a dead pool, and a
// finder that hangs becomes a "timeout:" record instead of a wedged
// worker (Config.CellTimeout).
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"mtbench/internal/repository"
)

// boundCell is a matrix cell resolved against the repository and the
// finder registry, ready to execute.
type boundCell struct {
	cell   Cell
	finder *Finder
	in     CellInput
}

// bindCell resolves a cell's program, finder and parameter overrides,
// so unknown names fail before any budget burns.
func bindCell(cfg Config, cell Cell) (boundCell, error) {
	prog, err := repository.Get(cell.Program)
	if err != nil {
		return boundCell{}, err
	}
	finder, err := getFinder(cell.Finder)
	if err != nil {
		return boundCell{}, err
	}
	var params repository.Params
	if over, ok := cfg.Params[cell.Program]; ok {
		params = repository.Params(over)
	}
	return boundCell{
		cell:   cell,
		finder: finder,
		in: CellInput{
			Program:       prog,
			Body:          prog.BodyWith(params),
			Seed:          cell.Seed,
			Budget:        cell.Budget,
			MaxSteps:      cfg.MaxSteps,
			VariableBound: cfg.VariableBound,
			ThreadBound:   cfg.ThreadBound,
			PCTDepth:      cfg.PCTDepth,
		},
	}, nil
}

// ExecCell executes one matrix cell of cfg and returns its Record —
// the exact code path campaign.Run drives, exported so distributed
// workers (internal/campsvc) run cells through the same finders with
// the same guard rails, which is what makes a distributed store
// byte-identical to an in-process run.
//
// Context semantics: cancelling ctx kills the cell — ExecCell returns
// the cancellation cause and NO record, so a killed worker leaves
// nothing half-done (the distributed lease simply re-runs the cell
// elsewhere). A cfg.CellTimeout deadline, by contrast, settles the
// cell with a "timeout:" Outcome record. A panicking finder settles
// it with a "panic:" record carrying the stack.
func ExecCell(ctx context.Context, cfg Config, cell Cell) (Record, error) {
	cfg = cfg.normalized()
	bc, err := bindCell(cfg, cell)
	if err != nil {
		return Record{}, err
	}
	return bc.exec(ctx, cfg)
}

// finderReturn is what the sandboxed finder goroutine reports back.
type finderReturn struct {
	out      CellResult
	err      error
	panicked string // non-empty: the recovered panic value + stack
}

// exec runs the bound cell inside the guard rails. The finder runs on
// its own goroutine so a panic is recoverable and a hang abandonable;
// the channel is buffered so an abandoned finder's send never blocks.
func (bc boundCell) exec(ctx context.Context, cfg Config) (Record, error) {
	rec := Record{
		Program:  bc.cell.Program,
		Finder:   bc.cell.Finder,
		Seed:     bc.cell.Seed,
		Budget:   bc.cell.Budget,
		Bugs:     []string{},
		FirstBug: -1,
	}
	cellCtx := ctx
	if cfg.CellTimeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, cfg.CellTimeout)
		defer cancel()
	}

	ch := make(chan finderReturn, 1)
	start := time.Now()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- finderReturn{panicked: fmt.Sprintf("%v\n%s", r, debug.Stack())}
			}
		}()
		out, err := bc.finder.run(cellCtx, bc.in)
		ch <- finderReturn{out: out, err: err}
	}()

	select {
	case fr := <-ch:
		switch {
		case fr.panicked != "":
			rec.Outcome = "panic: " + fr.panicked
		case fr.err != nil:
			if ctx.Err() != nil {
				// Killed from above; the finder noticed the context.
				return Record{}, context.Cause(ctx)
			}
			if errors.Is(fr.err, context.DeadlineExceeded) {
				rec.Outcome = timeoutOutcome(cfg.CellTimeout)
			} else {
				return Record{}, fr.err
			}
		default:
			rec.Runs = fr.out.Runs
			if bugs := sortedUnique(fr.out.Bugs); len(bugs) > 0 {
				rec.Bugs = bugs
			}
			rec.FirstBug = fr.out.FirstBug
			rec.Counters = fr.out.Counters
		}
	case <-cellCtx.Done():
		// The finder has not returned yet. Built-in finders stop within
		// one run or schedule of the context firing; a registered
		// finder may ignore its context altogether, so the executor
		// does not wait. A parent cancellation is a kill: no record. A
		// deadline is the cell timeout: the finder goroutine is
		// abandoned (nothing bounds how long an uncooperative one
		// lingers; the buffered channel lets its eventual return
		// vanish) and a timeout record takes the cell's place.
		if ctx.Err() != nil {
			return Record{}, context.Cause(ctx)
		}
		rec.Outcome = timeoutOutcome(cfg.CellTimeout)
	}
	if cfg.Timing {
		rec.WallMS = float64(time.Since(start).Round(time.Microsecond)) / float64(time.Millisecond)
	}
	return rec, nil
}

func timeoutOutcome(d time.Duration) string {
	return fmt.Sprintf("timeout: cell exceeded %s wall clock", d)
}
