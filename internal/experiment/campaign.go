package experiment

import (
	"context"
	"fmt"

	"mtbench/internal/campaign"
)

// E12 — the campaign summary: every default finder
// (campaign.DefaultFinders) over the benchmark matrix under one shared
// per-cell budget, the report the whole campaign layer exists to
// produce at the push of a button. E1, E5, E11 and E13 compare a few
// finders on one axis each; E12 is the full tool×program matrix view.
// All five are computed through the same persistent machinery
// `cmd/campaign` stores and gates on (here with an in-memory store,
// since the prepared experiment is about the report, not the file).

// CampaignConfig parameterizes E12.
type CampaignConfig struct {
	// Campaign is the matrix to run; the zero value is the standard
	// fixed-seed gate campaign (the config campaign/baseline.jsonl is
	// generated from).
	Campaign campaign.Config
}

// Campaign runs E12: the campaign matrix into an in-memory store,
// rendered as the per-finder summary and the full per-cell table.
func Campaign(cfg CampaignConfig) ([]*Table, error) {
	sum, err := campaign.Run(context.Background(), cfg.Campaign, nil, nil)
	if err != nil {
		return nil, err
	}
	tables := campaign.SummaryTables(sum.Config, sum.Records)
	tables[0].ID = "E12"
	tables[0].Title = "campaign: tool×program benchmark matrix summary"
	tables[1].ID = "E12b"
	tables[1].Title = "campaign: per-cell results"
	tables[0].Note("persistent form: cmd/campaign run/resume/compare/gate over the same matrix")
	return tables, nil
}

// column renders one field of a campaign record as a table cell.
type column struct {
	name string
	cell func(campaign.Record) string
}

var (
	runsCol     = column{"runs", func(r campaign.Record) string { return itoa(r.Runs) }}
	bugsCol     = column{"bugs", func(r campaign.Record) string { return itoa(len(r.Bugs)) }}
	firstBugCol = column{"first_bug", func(r campaign.Record) string {
		if r.FirstBug < 1 {
			return "-"
		}
		return itoa(r.FirstBug)
	}}
)

// counterCol renders the finder counter name through format, '-' when
// the finder does not report it.
func counterCol(name string, format func(int64) string) column {
	return column{name, func(r campaign.Record) string {
		v, ok := r.Counters[name]
		if !ok {
			return "-"
		}
		return format(v)
	}}
}

func yesNo(v int64) string {
	if v != 0 {
		return "yes"
	}
	return "no"
}

// finderTable runs cfg (one seed) as an in-memory campaign, one cell
// at a time, and fills t with one row per program and finder, in the
// order cfg lists them: the program, the finder's name under label,
// then cols. A cell with an abnormal outcome (panic, timeout) is an
// error, since its row would compare nothing.
func finderTable(t *Table, label string, cfg campaign.Config, cols ...column) ([]*Table, error) {
	cfg.Workers = 1
	sum, err := campaign.Run(context.Background(), cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	recs := make(map[string]campaign.Record, len(sum.Records))
	for _, r := range sum.Records {
		if r.Failed() {
			return nil, fmt.Errorf("%s: cell %s: %s", t.ID, r.Key(), r.Outcome)
		}
		recs[r.Program+"|"+r.Finder] = r
	}
	t.Columns = []string{"program", label}
	for _, c := range cols {
		t.Columns = append(t.Columns, c.name)
	}
	for _, prog := range cfg.Programs {
		for _, finder := range cfg.Finders {
			r := recs[prog+"|"+finder]
			row := []string{prog, finder}
			for _, c := range cols {
				row = append(row, c.cell(r))
			}
			t.AddRow(row...)
		}
	}
	return []*Table{t}, nil
}
