package main

import (
	"flag"
	"strings"
	"testing"
)

func parse(t *testing.T, args ...string) error {
	t.Helper()
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	cli, search := command(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("flags %v rejected: %v", args, err)
	}
	return cli.Run(search)
}

// TestParams: fuzz takes the same -params as its sibling search CLIs.
// Under the default -first a nil error means the hunt found a bug.
func TestParams(t *testing.T) {
	if err := parse(t, "-prog", "account", "-params", "depositors=2,deposits=1", "-runs", "200", "-seed", "1", "-json"); err != nil {
		t.Fatal(err)
	}
	err := parse(t, "-prog", "account", "-params", "depositors=x")
	if err == nil || !strings.Contains(err.Error(), `"depositors=x"`) {
		t.Fatalf("malformed -params: err = %v, want one naming the entry", err)
	}
}
