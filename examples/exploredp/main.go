// Exploredp: systematically explore the dining philosophers and prove
// the deadlock — then prove the resource-ordering fix deadlock-free by
// exhausting its (bounded) schedule space. Random testing can only
// ever say "not found"; exploration draws the distinction.
//
// The search runs sharded across all cores (ExploreOptions.Workers).
// No schedule is ever executed twice; with sleep sets enabled (as
// here) the shard boundaries prune a little less than serial order,
// so the exhaustion proof may cost some extra schedules — but never
// soundness.
package main

import (
	"fmt"

	"mtbench"
)

func explore(progName string, size mtbench.ProgramParams) {
	prog, err := mtbench.GetProgram(progName)
	if err != nil {
		panic(err)
	}
	body := prog.BodyWith(size)

	res := mtbench.Explore(mtbench.ExploreOptions{
		MaxSchedules:   200000,
		StopAtFirstBug: true,
		SleepSets:      true,
		Workers:        0, // 0 = one search worker per core
		Name:           progName,
	}, body)
	if res.Err != nil {
		panic(res.Err)
	}

	fmt.Printf("%s: %d schedules", progName, res.Schedules)
	switch {
	case len(res.Bugs) > 0:
		bug := res.Bugs[0]
		fmt.Printf(" -> %s found at schedule #%d\n", bug.Result.Verdict, bug.Index)
		fmt.Printf("  %s\n", bug.Result.DeadlockInfo)
		// The scenario is replayable: same schedule, same deadlock.
		rep := mtbench.RunControlled(mtbench.ControlledConfig{
			Strategy: &mtbench.FixedSchedule{Decisions: bug.Schedule},
		}, body)
		fmt.Printf("  replayed: %v\n", rep.Verdict)
	case res.Exhausted:
		fmt.Printf(" -> schedule space exhausted, no bug exists at this size\n")
	default:
		fmt.Printf(" -> budget exhausted, nothing found\n")
	}
}

func main() {
	// Both programs at the philosophers' explorable size (two
	// philosophers, one round).
	phil, err := mtbench.GetProgram("philosophers")
	if err != nil {
		panic(err)
	}
	explore("philosophers", phil.Explorable)      // all left-handed: deadlock exists
	explore("philosophersfixed", phil.Explorable) // ordered forks: provably clean
}
