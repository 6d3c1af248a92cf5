package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mtbench/internal/campaign"
)

// TestErrorLinePrefixOnce pins the CLI's error line: one "campaign: "
// prefix whether or not the error came from internal/campaign, which
// prefixes its own.
func TestErrorLinePrefixOnce(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"bad\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, loadErr := campaign.Load(bad)
	if loadErr == nil {
		t.Fatal("a store without a meta line loaded")
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{errors.New("show: -store is required"), "campaign: show: -store is required"},
		{fmt.Errorf("campaign: store %s has no valid meta line", bad), "campaign: store " + bad + " has no valid meta line"},
		{loadErr, loadErr.Error()},
	} {
		if got := errorLine(c.err); got != c.want {
			t.Errorf("errorLine(%q) = %q, want %q", c.err, got, c.want)
		}
	}
}
