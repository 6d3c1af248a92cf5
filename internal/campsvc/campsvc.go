// Package campsvc is the distributed campaign service: a long-running
// coordinator that shards a campaign.Config's cell matrix across a
// fleet of workers, built so the benchmark survives its own
// infrastructure. The design center is fault tolerance, in the spirit
// the source paper demands of the tools it benchmarks — a testing
// framework that loses results to a crashed worker is itself a buggy
// concurrent system:
//
//   - Work moves under leases: a worker is granted one cell with a
//     deadline, extends it by heartbeating, and a lease that expires
//     (worker crashed, hung, or partitioned) silently re-enters the
//     queue for another worker. Nothing is lost, at worst re-run.
//   - Result ingestion is idempotent, keyed by cell identity: the
//     first completion settles a cell, later arrivals (a worker that
//     lost its lease but finished anyway, a retried upload) are
//     acknowledged as duplicates and dropped. Finders are
//     deterministic, so duplicate records are identical — dropping
//     them is free — and the merged store, after compaction, is
//     byte-identical to a single-process campaign.Run of the same
//     config.
//   - Failures back off exponentially with jitter, and a poison cell
//     — one that keeps killing workers — is quarantined after
//     MaxAttempts failed leases as a "quarantined:" record instead of
//     wedging the fleet forever.
//   - A cell costs one round trip: a completion can ask for the
//     worker's next grant and carries it back, and Client hands that
//     grant to the worker's next Lease without a request. A retried
//     completion (its response lost) gets the same grant again while
//     it is live, so a lost response orphans no lease.
//
// The package splits along the obvious seam: Coordinator owns all
// campaign state behind one mutex (time enters only through its
// injectable clock, so every recovery path is unit-testable with a
// fake clock), Work drives a worker's lease-execute-report loop
// through the panic-sandboxed, deadline-bounded campaign.ExecCell,
// and the Transport interface carries the protocol between them —
// in-process for tests (Local), JSON-over-HTTP for real fleets
// (Handler / Client), and wrapped in fault injectors for the chaos
// suite.
package campsvc

import (
	"time"

	"mtbench/internal/campaign"
)

// LeaseRequest asks the coordinator for one cell of work.
type LeaseRequest struct {
	// Worker is the requesting worker's self-chosen name; it keys the
	// coordinator's liveness bookkeeping, not authorization.
	Worker string `json:"worker"`
}

// Lease is a granted cell: the worker owns it until Deadline and
// extends its ownership by heartbeating every HeartbeatMS.
type Lease struct {
	ID       string        `json:"id"`
	Cell     campaign.Cell `json:"cell"`
	Deadline time.Time     `json:"deadline"`
	// HeartbeatMS is how often the coordinator wants heartbeats —
	// comfortably inside the lease TTL, so one dropped beat is
	// survivable.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// ConfigFingerprint pins the campaign config the cell must run
	// under; a worker holding a different config re-fetches before
	// executing (a coordinator restarted with a new campaign).
	ConfigFingerprint string `json:"config_fingerprint"`
	// Attempt counts grants of this cell, this one included — 1 on
	// first grant, rising as leases expire or workers report failure.
	Attempt int `json:"attempt"`
}

// LeaseResponse answers a lease request: exactly one of Done, Lease,
// or a retry hint.
type LeaseResponse struct {
	// Done: every cell is settled, the worker can exit.
	Done bool `json:"done"`
	// Lease is the granted cell, nil when none is available.
	Lease *Lease `json:"lease,omitempty"`
	// RetryMS hints when to ask again after an empty grant (cells all
	// leased out or backing off).
	RetryMS int64 `json:"retry_ms,omitempty"`
}

// HeartbeatRequest extends a lease.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	// Deadline is the extended lease deadline.
	Deadline time.Time `json:"deadline"`
	// Lost: the lease no longer exists (expired and re-queued, or the
	// cell settled from elsewhere). The worker must abandon the cell —
	// its eventual result would be a duplicate at best.
	Lost bool `json:"lost"`
}

// CompleteRequest reports a finished cell.
type CompleteRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
	// Record is the cell's result from campaign.ExecCell.
	Record campaign.Record `json:"record"`
	// Next asks for the worker's next lease in the response, saving
	// the round trip of a separate lease request.
	Next bool `json:"next,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	// Duplicate: the cell was already settled, the record was dropped.
	// Not an error — idempotent ingestion is what makes worker-side
	// retries safe.
	Duplicate bool `json:"duplicate"`
	// Next is the worker's next grant when the request asked for one:
	// exactly what a lease request would have answered.
	Next *LeaseResponse `json:"next,omitempty"`
}

// FailRequest reports that a cell could not be executed (in practice:
// the finder panicked — crashes and hangs never get to report, the
// lease expiry speaks for them).
type FailRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
	Reason  string `json:"reason"`
}

// FailResponse acknowledges a failure report.
type FailResponse struct {
	// Quarantined: this failure was the cell's last allowed attempt;
	// the coordinator settled it as a "quarantined:" record.
	Quarantined bool `json:"quarantined"`
}
