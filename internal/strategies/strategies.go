// Package strategies is the one table that turns a testing tool's name
// into per-run scheduling strategies, so every command and experiment
// builds a tool the same way. It sits above sched, which cannot import
// noise or pct.
package strategies

import (
	"fmt"
	"sort"
	"strings"

	"mtbench/internal/noise"
	"mtbench/internal/pct"
	"mtbench/internal/sched"
)

// Params are the entries' typed parameters; each entry reads its own.
type Params struct {
	P     float64 // noise probability, in [0,1]
	Kind  string  // noise kind: yield (the default), sleep or mixed
	Depth int     // PCT bug depth (0 = pct.DefaultDepth)
}

// Factory yields one run's strategy from its seed. A randomized
// entry's factory builds its strategy on the first call and reseeds it
// in place on every later call, so the strategy returned is valid
// until the next call: call it after the previous run finished, never
// for two runs at once. PCT's factory also learns its step horizon
// from the runs its earlier strategies served.
type Factory func(seed int64) sched.Strategy

var kinds = map[string]noise.Kind{"": noise.KindYield, "yield": noise.KindYield, "sleep": noise.KindSleep, "mixed": noise.KindMixed}

var table = map[string]func(Params) Factory{
	"baseline":   func(Params) Factory { return func(int64) sched.Strategy { return sched.Nonpreemptive() } },
	"roundrobin": func(Params) Factory { return func(int64) sched.Strategy { return sched.RoundRobin() } },
	"random":     func(Params) Factory { return sched.RandomFactory() },
	"dispatch":   func(Params) Factory { return sched.RandomWhenBlockedFactory() },
	"noise":      func(p Params) Factory { return noise.NewFactory(noise.NewBernoulli(p.P, kinds[p.Kind])) },
	"pct":        func(p Params) Factory { return pct.NewFactory(p.Depth) },
}

// New returns the named tool's factory.
func New(name string, p Params) (Factory, error) {
	if _, ok := kinds[p.Kind]; !ok || !(p.P >= 0 && p.P <= 1) {
		return nil, fmt.Errorf("bad noise parameters p=%v kind=%q (want p in [0,1], kind yield, sleep or mixed)", p.P, p.Kind)
	}
	build, ok := table[name]
	if !ok {
		return nil, fmt.Errorf("unknown strategy %q (want %s)", name, Usage())
	}
	return build(p), nil
}

// Usage lists the table's names for flag help: "baseline | ... | roundrobin".
func Usage() string {
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}
