package core_test

import (
	"context"
	"testing"

	"mtbench/internal/core"
	"mtbench/internal/repository"
	"mtbench/internal/sched"
)

// TestBugKeyMatchesSignature: over every repository program's bug
// results from a seeded random sweep, two results share a BugLog key
// exactly when they share a BugSignature, so keying the log's dedup on
// the struct instead of the formatted string changes no bug set.
func TestBugKeyMatchesSignature(t *testing.T) {
	sigOf := map[any]string{}
	keyOf := map[string]any{}
	random := sched.RandomFactory()
	for _, p := range repository.All() {
		_, err := sched.Loop(context.Background(), 60, sched.Config{MaxSteps: 300_000, Plan: p.Plan}, p.BodyWith(nil),
			func(i int, cfg *sched.Config) error {
				cfg.Strategy = random(core.MixSeed(1, int64(i)))
				return nil
			}, func(_ int, res *core.Result) error {
				if !res.Verdict.Bug() {
					return nil
				}
				key, sig := core.BugKeyOf(res), core.BugSignature(res)
				if s, ok := sigOf[key]; ok && s != sig {
					t.Errorf("%s: one key, signatures %q and %q", p.Name, s, sig)
				}
				if k, ok := keyOf[sig]; ok && k != key {
					t.Errorf("%s: signature %q under keys %v and %v", p.Name, sig, k, key)
				}
				sigOf[key], keyOf[sig] = sig, key
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(sigOf) < 10 {
		t.Fatalf("the sweep found %d distinct bugs, too few to pin anything", len(sigOf))
	}
}
