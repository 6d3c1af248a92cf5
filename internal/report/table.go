// Package report holds the evaluation-report table: the one rendering
// vocabulary every layer that produces comparisons — prepared
// experiments (internal/experiment) and persistent campaigns
// (internal/campaign) — shares. A Table renders as aligned text for
// humans, CSV for spreadsheets, and JSON (with pinned field names) for
// machine collectors; the three serializations are the "prepared
// evaluation report, which is easy to understand" of §4.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is one evaluation report table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; the cell count must match the columns.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: table %s row has %d cells, want %d", t.ID, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (quoted minimally).
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	var b strings.Builder
	cells := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cells[i] = esc(c)
	}
	b.WriteString(strings.Join(cells, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, c := range row {
			cells[i] = esc(c)
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// JSON writes the table as a single JSON object ({id, title, columns,
// rows, notes}) — the machine-readable serialization external campaign
// tooling collects instead of parsing rendered text.
func (t *Table) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t.jsonForm())
}

// JSONAll writes several tables as one JSON array.
func JSONAll(w io.Writer, tables []*Table) error {
	forms := make([]tableJSON, len(tables))
	for i, t := range tables {
		forms[i] = t.jsonForm()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(forms)
}

// tableJSON fixes the serialized field names independently of the Go
// struct, so renaming fields cannot silently break collectors.
type tableJSON struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

func (t *Table) jsonForm() tableJSON {
	rows := t.Rows
	if rows == nil {
		rows = [][]string{}
	}
	return tableJSON{ID: t.ID, Title: t.Title, Columns: t.Columns, Rows: rows, Notes: t.Notes}
}

// RenderAll renders several tables as text.
func RenderAll(w io.Writer, tables []*Table) error {
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteTables renders tables in the CLI output convention shared by
// cmd/mtbench and cmd/campaign: JSON as one array, CSV with a
// "# ID: title" comment header and a blank line per table, aligned
// text otherwise. JSON wins when both flags are set.
func WriteTables(w io.Writer, tables []*Table, csv, json bool) error {
	if json {
		return JSONAll(w, tables)
	}
	for _, t := range tables {
		if csv {
			if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
				return err
			}
			if err := t.CSV(w); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		} else if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}
