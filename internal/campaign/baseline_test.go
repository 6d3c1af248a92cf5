package campaign

import (
	"context"
	"testing"
)

// TestCheckedInBaseline re-runs the checked-in baseline's pinned
// config and gates against it — the same path CI's campaign-gate job
// exercises, pinned here so a finder change that loses a bug or blows
// a budget envelope fails `go test` too, with the classified diff in
// the failure message.
func TestCheckedInBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full baseline campaign in -short mode")
	}
	cfg, base, err := Load("../../campaign/baseline.jsonl")
	if err != nil {
		t.Fatalf("checked-in baseline unreadable (regenerate with `go run ./cmd/campaign run -store campaign/baseline.jsonl -force`): %v", err)
	}
	cfg.Workers = 4
	sum, err := Run(context.Background(), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	diff := Compare(base, sum.Records, 1.0)
	if err := diff.Gate(); err != nil {
		t.Fatalf("current finders regress against campaign/baseline.jsonl:\n%v\n(if the change is intentional, regenerate the baseline)", err)
	}
}

// TestDefaultConfigIsBaseline: the zero config is the matrix the
// checked-in baseline pins, and registering another finder does not
// change it (the default finder set is a fixed list).
func TestDefaultConfigIsBaseline(t *testing.T) {
	cfg, _, err := Load("../../campaign/baseline.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	registerTestFinder(t, "test-not-default", func(context.Context, CellInput) (CellResult, error) {
		return CellResult{FirstBug: -1}, nil
	})
	if got, want := Default().Fingerprint(), cfg.Fingerprint(); got != want {
		t.Fatalf("Default() is not the baseline's config:\n  default:  %s\n  baseline: %s", got, want)
	}
}
