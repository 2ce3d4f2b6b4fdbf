package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder is the always-on request black box: a fixed-size ring of
// per-request records cheap enough to leave recording under full serving
// load. Record is allocation-free — one mutex acquisition and a struct copy
// into preallocated storage — so it sits on the hot path unconditionally,
// unlike the span tracer which is opt-in.
//
// Anomaly capture: a request that errors (status >= 500, or 0 = transport
// failure) or breaches the pin latency threshold is copied into a separate
// small pinned ring together with its full span tree (when a tracer is
// attached and enabled), preserving the evidence after the main window rolls.
// Pinning allocates, but anomalies are rare by definition.

// ReqRecord is one completed request as retained by the recorder.
type ReqRecord struct {
	Trace   TraceID `json:"trace"`
	Route   string  `json:"route"`
	Shard   string  `json:"shard,omitempty"` // router: the consistent-hash key
	Replica int32   `json:"replica"`         // router: owning replica id; -1 = none/local
	Status  int32   `json:"status"`          // HTTP status; 0 = transport error
	QueueNs int64   `json:"queue_ns"`        // admission wait
	ServeNs int64   `json:"serve_ns"`        // handler/upstream time
	TotalNs int64   `json:"total_ns"`        // queue + serve
	Epoch   uint64  `json:"epoch"`           // timing epoch at completion
	TopoGen uint64  `json:"topo_gen,omitempty"`
	Unix    int64   `json:"unix_ns"` // completion time, ns since Unix epoch
}

// bad reports whether the record is an error for anomaly and SLO purposes.
func (r *ReqRecord) bad() bool { return r.Status == 0 || r.Status >= 500 }

// PinnedRequest is one captured anomaly: the record plus its span tree as of
// pin time (nil when no tracer was attached or it was disabled).
type PinnedRequest struct {
	Rec   ReqRecord  `json:"rec"`
	Spans []SpanView `json:"spans,omitempty"`
}

// FlightRecorderOptions configures NewFlightRecorder. The zero value is
// usable: 4096-entry ring, 250 ms pin threshold, 32 pin slots, no tracer.
type FlightRecorderOptions struct {
	Size         int           // ring entries; <= 0 means 4096
	PinThreshold time.Duration // latency at/above which a request pins; <= 0 means 250 ms
	PinCapacity  int           // pinned-anomaly ring entries; <= 0 means 32
	Tracer       *Tracer       // span source for pinned anomalies (optional)
}

// FlightRecorder holds the ring. Construct with NewFlightRecorder; methods
// are safe for concurrent use and safe on a nil receiver (no-op), so serving
// layers wire it unconditionally.
type FlightRecorder struct {
	pinNs atomic.Int64
	tr    *Tracer

	mu     sync.Mutex
	ring   []ReqRecord
	n      uint64 // total records ever; ring[(n-1) % len] is the newest
	pinned []PinnedRequest
	pinN   uint64 // total pins ever
}

// NewFlightRecorder returns a recorder with the given options.
func NewFlightRecorder(opt FlightRecorderOptions) *FlightRecorder {
	if opt.Size <= 0 {
		opt.Size = 4096
	}
	if opt.PinThreshold <= 0 {
		opt.PinThreshold = 250 * time.Millisecond
	}
	if opt.PinCapacity <= 0 {
		opt.PinCapacity = 32
	}
	f := &FlightRecorder{
		tr:     opt.Tracer,
		ring:   make([]ReqRecord, opt.Size),
		pinned: make([]PinnedRequest, 0, opt.PinCapacity),
	}
	f.pinNs.Store(int64(opt.PinThreshold))
	return f
}

// PinThreshold returns the current anomaly latency threshold.
func (f *FlightRecorder) PinThreshold() time.Duration {
	if f == nil {
		return 0
	}
	return time.Duration(f.pinNs.Load())
}

// Record appends one request to the ring. Zero allocations on the normal
// path; the pin path (error or threshold breach) allocates to copy the span
// tree. Safe on nil.
func (f *FlightRecorder) Record(rec ReqRecord) {
	if f == nil {
		return
	}
	pin := rec.bad() || rec.TotalNs >= f.pinNs.Load()
	f.mu.Lock()
	f.ring[f.n%uint64(len(f.ring))] = rec
	f.n++
	f.mu.Unlock()
	if pin {
		f.pin(rec)
	}
}

// pin captures an anomalous request with its span tree. The tracer snapshot
// happens outside f.mu (TraceSpans takes the tracer's own lock); the pinned
// ring overwrites oldest-first once full.
func (f *FlightRecorder) pin(rec ReqRecord) {
	p := PinnedRequest{Rec: rec, Spans: f.tr.TraceSpans(rec.Trace)}
	f.mu.Lock()
	if len(f.pinned) < cap(f.pinned) {
		f.pinned = append(f.pinned, p)
	} else if cap(f.pinned) > 0 {
		f.pinned[f.pinN%uint64(cap(f.pinned))] = p
	}
	f.pinN++
	f.mu.Unlock()
}

// Total returns how many requests have been recorded since construction.
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Size returns the ring capacity.
func (f *FlightRecorder) Size() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// Snapshot returns the retained records, oldest first.
func (f *FlightRecorder) Snapshot() []ReqRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	size := uint64(len(f.ring))
	count := f.n
	if count > size {
		count = size
	}
	out := make([]ReqRecord, 0, count)
	for i := uint64(0); i < count; i++ {
		out = append(out, f.ring[(f.n-count+i)%size])
	}
	return out
}

// Pinned returns the captured anomalies, oldest first.
func (f *FlightRecorder) Pinned() []PinnedRequest {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]PinnedRequest, 0, len(f.pinned))
	if f.pinN > uint64(cap(f.pinned)) && cap(f.pinned) > 0 {
		// Ring has wrapped: oldest entry is at pinN % cap.
		start := f.pinN % uint64(cap(f.pinned))
		for i := uint64(0); i < uint64(len(f.pinned)); i++ {
			out = append(out, f.pinned[(start+i)%uint64(len(f.pinned))])
		}
		return out
	}
	return append(out, f.pinned...)
}

// flightDump is the /debug/flightrecorder JSON shape.
type flightDump struct {
	Size         int             `json:"size"`
	Total        uint64          `json:"total"`
	PinThreshold float64         `json:"pin_threshold_s"`
	Recent       []ReqRecord     `json:"recent"`
	Pinned       []PinnedRequest `json:"pinned,omitempty"`
}

// WriteJSON dumps the recorder state (recent ring + pinned anomalies) as
// JSON — the payload behind /debug/flightrecorder.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	if f == nil {
		_, err := io.WriteString(w, `{"size":0,"total":0,"recent":[]}`)
		return err
	}
	d := flightDump{
		Size:         f.Size(),
		Total:        f.Total(),
		PinThreshold: f.PinThreshold().Seconds(),
		Recent:       f.Snapshot(),
		Pinned:       f.Pinned(),
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&d)
}
