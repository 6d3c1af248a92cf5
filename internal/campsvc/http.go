// The wire layer: the coordinator as a JSON-over-HTTP service and the
// matching Transport client. The protocol is deliberately boring —
// five POST endpoints and two GETs, request and response structs
// straight from campsvc.go — because every interesting property
// (leases, idempotence, quarantine) lives in the coordinator's state
// machine, not in the wire format. Client maps HTTP 4xx to
// PermanentError so workers distinguish "the coordinator said no"
// from "the coordinator is unreachable". Client's one departure from
// one-call-one-request: every completion asks for the worker's next
// grant (CompleteRequest.Next), and the worker's next Lease returns
// the grant the response carried instead of POSTing /v1/lease, so a
// steadily working fleet sends one request per cell.
package campsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"mtbench/internal/campaign"
)

// Handler serves the coordinator protocol over HTTP.
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		handleJSON(w, r, c.Lease)
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		handleJSON(w, r, c.Heartbeat)
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		handleJSON(w, r, c.Complete)
	})
	mux.HandleFunc("POST /v1/fail", func(w http.ResponseWriter, r *http.Request) {
		handleJSON(w, r, c.Fail)
	})
	mux.HandleFunc("GET /v1/config", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Config())
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	return mux
}

// handleJSON decodes the request body, applies fn, and encodes the
// response. Coordinator errors are protocol rejections → 400.
func handleJSON[Req, Resp any](w http.ResponseWriter, r *http.Request, fn func(Req) (Resp, error)) {
	var req Req
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "decode request: "+err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := fn(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Client is the HTTP Transport: a worker's view of a remote
// coordinator. Every Complete asks for the worker's next grant, and
// the worker's next Lease returns that grant without a request, so a
// cell costs one round trip.
type Client struct {
	// Base is the coordinator's base URL, e.g. "http://host:8347".
	Base string
	// HTTP is the underlying client (nil = a client with a 30s
	// timeout; per-call deadlines must exist or a hung coordinator
	// wedges the worker's retry loop).
	HTTP *http.Client

	mu   sync.Mutex
	next map[string]LeaseResponse // by worker: the grant the last Complete carried
}

var _ Transport = (*Client)(nil)

// Lease returns the grant the worker's last completion carried, once,
// and asks the coordinator otherwise.
func (c *Client) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	c.mu.Lock()
	next, ok := c.next[req.Worker]
	delete(c.next, req.Worker)
	c.mu.Unlock()
	if ok {
		return next, nil
	}
	return post[LeaseResponse](ctx, c, "/v1/lease", req)
}

func (c *Client) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return post[HeartbeatResponse](ctx, c, "/v1/heartbeat", req)
}

// Complete reports the cell and keeps the worker's next grant, which
// the response carries, for its next Lease.
func (c *Client) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	req.Next = true
	resp, err := post[CompleteResponse](ctx, c, "/v1/complete", req)
	if err == nil && resp.Next != nil {
		c.mu.Lock()
		if c.next == nil {
			c.next = map[string]LeaseResponse{}
		}
		c.next[req.Worker] = *resp.Next
		c.mu.Unlock()
	}
	return resp, err
}

func (c *Client) Fail(ctx context.Context, req FailRequest) (FailResponse, error) {
	return post[FailResponse](ctx, c, "/v1/fail", req)
}

func (c *Client) Config(ctx context.Context) (campaign.Config, error) {
	return get[campaign.Config](ctx, c, "/v1/config")
}

func (c *Client) Status(ctx context.Context) (Status, error) {
	return get[Status](ctx, c, "/v1/status")
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func post[Resp any](ctx context.Context, c *Client, path string, req any) (Resp, error) {
	var zero Resp
	body, err := json.Marshal(req)
	if err != nil {
		return zero, fmt.Errorf("campsvc: encode %s request: %w", path, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(c.Base, "/")+path, bytes.NewReader(body))
	if err != nil {
		return zero, fmt.Errorf("campsvc: build %s request: %w", path, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	return do[Resp](c, hreq, path)
}

func get[Resp any](ctx context.Context, c *Client, path string) (Resp, error) {
	var zero Resp
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(c.Base, "/")+path, nil)
	if err != nil {
		return zero, fmt.Errorf("campsvc: build %s request: %w", path, err)
	}
	return do[Resp](c, hreq, path)
}

func do[Resp any](c *Client, hreq *http.Request, path string) (Resp, error) {
	var zero Resp
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return zero, fmt.Errorf("campsvc: %s: %w", path, err)
	}
	defer hresp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(hresp.Body, 4<<20))
	if err != nil {
		return zero, fmt.Errorf("campsvc: read %s response: %w", path, err)
	}
	if hresp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(body))
		if hresp.StatusCode >= 400 && hresp.StatusCode < 500 {
			return zero, &PermanentError{Status: hresp.StatusCode, Msg: msg}
		}
		return zero, fmt.Errorf("campsvc: %s: status %d: %s", path, hresp.StatusCode, msg)
	}
	if err := json.Unmarshal(body, &zero); err != nil {
		return zero, fmt.Errorf("campsvc: decode %s response: %w", path, err)
	}
	return zero, nil
}
