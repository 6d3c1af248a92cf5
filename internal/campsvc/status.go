// Campaign-service observability: a Status snapshot and its rendering
// through the shared report tables (SVC / SVCW), so `campaign status`
// reads like every other report in the benchmark.
package campsvc

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"mtbench/internal/report"
)

// Status is a point-in-time snapshot of a coordinator.
type Status struct {
	// Cells is the matrix size; the phase counts partition it.
	Cells       int `json:"cells"`
	Done        int `json:"done"`
	Pending     int `json:"pending"`
	Leased      int `json:"leased"`
	Quarantined int `json:"quarantined"`
	// Finished: every cell settled, store compacted.
	Finished bool `json:"finished"`
	// Workers is the fleet roster, sorted by name.
	Workers []WorkerStatus `json:"workers"`
}

// WorkerStatus is the coordinator's view of one worker.
type WorkerStatus struct {
	Name string `json:"name"`
	// IdleMS is how long since the worker was last heard from.
	IdleMS    int64 `json:"idle_ms"`
	Leases    int   `json:"leases"`
	Completed int   `json:"completed"`
	Failed    int   `json:"failed"`
	Evicted   bool  `json:"evicted"`
}

// Status snapshots the coordinator (reaping expired state first, so
// the snapshot reflects the current time, not the last API call).
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.reapLocked(now)

	s := Status{Cells: len(c.order), Finished: c.open == 0}
	for _, e := range c.order {
		switch e.phase {
		case cellPending:
			s.Pending++
		case cellLeased:
			s.Leased++
		case cellDone:
			s.Done++
		case cellQuarantined:
			s.Quarantined++
		}
	}
	held := map[string]int{}
	for _, l := range c.leases {
		held[l.worker]++
	}
	for _, w := range c.workers {
		s.Workers = append(s.Workers, WorkerStatus{
			Name:      w.name,
			IdleMS:    now.Sub(w.lastSeen).Milliseconds(),
			Leases:    held[w.name],
			Completed: w.completed,
			Failed:    w.failed,
			Evicted:   w.evicted,
		})
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Name < s.Workers[j].Name })
	return s
}

// Tables renders the status as report tables: SVC, the cell-phase
// summary, and SVCW, the worker roster.
func (s Status) Tables() []*report.Table {
	summary := &report.Table{
		ID:      "SVC",
		Title:   "campaign service status",
		Columns: []string{"cells", "done", "pending", "leased", "quarantined", "finished"},
	}
	summary.AddRow(strconv.Itoa(s.Cells), strconv.Itoa(s.Done), strconv.Itoa(s.Pending),
		strconv.Itoa(s.Leased), strconv.Itoa(s.Quarantined), fmt.Sprintf("%v", s.Finished))

	workers := &report.Table{
		ID:      "SVCW",
		Title:   "campaign service workers",
		Columns: []string{"worker", "idle", "leases", "completed", "failed", "evicted"},
	}
	for _, w := range s.Workers {
		workers.AddRow(w.Name, (time.Duration(w.IdleMS) * time.Millisecond).String(),
			strconv.Itoa(w.Leases), strconv.Itoa(w.Completed), strconv.Itoa(w.Failed),
			fmt.Sprintf("%v", w.Evicted))
	}
	if len(s.Workers) == 0 {
		workers.Note("no workers have connected yet")
	}
	return []*report.Table{summary, workers}
}
