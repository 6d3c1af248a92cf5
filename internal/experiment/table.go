// Package experiment is the benchmark's prepared experiment (§4,
// component 2): "prepared scripts with which programs such as race
// detection and noise can be evaluated as to how frequently they
// uncover faults, and if they raise false alarms ... This script
// produces a prepared evaluation report, which is easy to understand.
// ... with the push of a button, it can be evaluated and compared to
// alternative approaches."
//
// Each experiment function runs a tool matrix over the repository and
// returns Tables; cmd/mtbench renders them as text, CSV or JSON. The
// experiment IDs (E1..E13, F1) are indexed in DESIGN.md and described
// in README.md's "Prepared experiments" section.
package experiment

import (
	"fmt"

	"mtbench/internal/report"
)

// Table is one evaluation report table. It is the shared report type
// of internal/report (aliased here so every existing experiment and
// caller keeps compiling); internal/campaign renders its comparison
// reports through the same type.
type Table = report.Table

var (
	// JSONAll writes several tables as one JSON array.
	JSONAll = report.JSONAll
	// RenderAll renders several tables as text.
	RenderAll = report.RenderAll
)

func pct(num, den int) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func i64(v int64) string { return fmt.Sprintf("%d", v) }
