package sched

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"mtbench/internal/core"
)

// runOn executes one run on r from a goroutine of its own and fails
// the test if the run does not return a Result: a Goexit that escaped
// to the caller ends that goroutine, and a run that never finishes
// trips the deadline.
func runOn(t *testing.T, r *Runner, cfg Config, body func(core.T)) *core.Result {
	t.Helper()
	done := make(chan *core.Result, 1)
	go func() {
		var res *core.Result
		defer func() { done <- res }()
		res = r.Run(cfg, body)
	}()
	select {
	case res := <-done:
		if res == nil {
			t.Fatal("Run did not return: runtime.Goexit reached the caller")
		}
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not finish")
	}
	return nil
}

func resultJSON(t *testing.T, res *core.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBodyGoexit pins what a body calling runtime.Goexit does to a
// pooled Runner: the run fails naming the thread and runtime.Goexit,
// the dead thread never re-enters the pool, the Runner's next run is
// byte-identical to a fresh runner's, and Close releases the dead
// thread's goroutine.
func TestBodyGoexit(t *testing.T) {
	cases := []struct {
		name   string
		thread string
		tid    core.ThreadID
		body   func(core.T)
	}{
		{"child", "w", 1, func(ct core.T) {
			x := ct.NewInt("x", 0)
			h := ct.Go("w", func(wt core.T) {
				x.Add(wt, 1)
				runtime.Goexit()
			})
			x.Add(ct, 1)
			h.Join(ct)
		}},
		{"main", "main", 0, func(ct core.T) {
			x := ct.NewInt("x", 0)
			ct.Go("w", func(wt core.T) { x.Add(wt, 1) })
			x.Add(ct, 1)
			runtime.Goexit()
		}},
		{"others-blocked", "w2", 2, func(ct core.T) {
			mu := ct.NewMutex("mu")
			mu.Lock(ct)
			h1 := ct.Go("w1", func(wt core.T) { mu.Lock(wt); mu.Unlock(wt) })
			h2 := ct.Go("w2", func(wt core.T) { wt.Yield(); runtime.Goexit() })
			h2.Join(ct)
			mu.Unlock(ct)
			h1.Join(ct)
		}},
	}
	baseline := runtime.NumGoroutine()
	r := NewRunner()
	for _, tc := range cases {
		for seed := int64(0); seed < 4; seed++ {
			res := runOn(t, r, Config{Strategy: Random(seed), SkipTiming: true}, tc.body)
			if res.Verdict != core.VerdictFail || res.Failure == nil {
				t.Fatalf("%s seed %d: verdict %v, want fail", tc.name, seed, res.Verdict)
			}
			if msg := res.Failure.Msg; !strings.Contains(msg, "runtime.Goexit") || !strings.Contains(msg, tc.thread) {
				t.Fatalf("%s seed %d: failure %q does not name thread %s and runtime.Goexit", tc.name, seed, msg, tc.thread)
			}
			if res.Failure.Thread != tc.tid {
				t.Fatalf("%s seed %d: failure thread %d, want %d", tc.name, seed, res.Failure.Thread, tc.tid)
			}
			for _, th := range r.s.free {
				if th.exited {
					t.Fatalf("%s seed %d: a thread that called runtime.Goexit is back in the pool", tc.name, seed)
				}
			}
			cfg := func() Config { return Config{Strategy: Random(seed), SkipTiming: true, RecordSchedule: true} }
			fresh := resultJSON(t, Run(cfg(), allocBody))
			if pooled := resultJSON(t, runOn(t, r, cfg(), allocBody)); pooled != fresh {
				t.Fatalf("%s seed %d: run after the Goexit\n%s\nfresh runner\n%s", tc.name, seed, pooled, fresh)
			}
		}
	}
	r.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: baseline %d, after close %d", baseline, n)
	}
}
