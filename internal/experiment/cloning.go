package experiment

import (
	"context"

	"mtbench/internal/cloning"
	"mtbench/internal/noise"
	"mtbench/internal/sched"
)

// E6 — cloning (§2.3: "because the same test is cloned many times,
// contentions are almost guaranteed"; cloning "may be coupled with
// ... noise making ... for greater efficiency").

// CloningConfig parameterizes E6.
type CloningConfig struct {
	CloneCounts []int
	Runs        int
	Stock       int64
}

// Cloning runs E6: oversell detection rate versus clone count, with
// and without noise on top.
func Cloning(cfg CloningConfig) ([]*Table, error) {
	if len(cfg.CloneCounts) == 0 {
		cfg.CloneCounts = []int{1, 2, 4, 8, 16}
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 40
	}
	if cfg.Stock <= 0 {
		cfg.Stock = 5
	}
	test := cloning.Reserve(cfg.Stock)

	t := &Table{
		ID:      "E6",
		Title:   "cloning: detection rate vs clone count",
		Columns: []string{"clones", "runs", "plain_detect", "plain_rate", "noise_detect", "noise_rate"},
	}
	t.Note("test: clients reserving from stock of %d with a check-then-act window", cfg.Stock)
	t.Note("plain = random dispatch only; noise = +bernoulli(0.3) yield noise")

	detected := func(n int, next func(seed int64) sched.Strategy) int {
		// No hook fails and nothing cancels, so Loop cannot fail.
		lr, _ := sched.Loop(context.TODO(), cfg.Runs, sched.Config{MaxSteps: 500_000}, cloning.Body(test, n), func(i int, c *sched.Config) error {
			c.Strategy = next(int64(i))
			return nil
		}, nil)
		return int(lr.Detected)
	}
	withNoise := noise.NewFactory(noise.NewBernoulli(0.3, noise.KindYield))
	for _, n := range cfg.CloneCounts {
		plain, noisy := detected(n, sched.RandomWhenBlockedFactory()), detected(n, withNoise)
		t.AddRow(itoa(n), itoa(cfg.Runs), itoa(plain), pct(plain, cfg.Runs), itoa(noisy), pct(noisy, cfg.Runs))
	}
	return []*Table{t}, nil
}
