package repository

// explorable is the one table of explorable sizes (Program.Explorable).
// It lives here rather than in the program literals because a bug
// signature carries its assertion's file:line (core.BugSignature) and
// the checked-in campaign baseline pins those signatures: a metadata
// line added above an assertion would read as a lost bug.
var explorable = map[string]Params{
	"account":      {"depositors": 2, "deposits": 1},
	"philosophers": {"philosophers": 2, "rounds": 1},
	"statmax":      {"reporters": 2},
}

func init() {
	for name, size := range explorable {
		registry[name].Explorable = size
	}
}
