package fleet

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"insta/internal/server"
)

// Health is the router's last decoded view of one replica's /healthz — the
// load section internal/server exposes for exactly this consumer, and the
// epoch.
type Health struct {
	OK bool
	server.Load
	Epoch     uint64
	CheckedAt time.Time
	Err       string
}

// Replica is one backend daemon as the pool sees it: a swappable base URL,
// two orthogonal state bits, and the per-replica admission gate.
//
// The two bits are deliberately independent:
//
//   - healthy is owned by the health-check loop — it falls after
//     unreadyAfter consecutive probe failures and rises again on the
//     first success, so a crashed or wedged replica is re-admitted the moment
//     it recovers.
//   - draining is owned by RollingSwap — a draining replica is still healthy
//     and still serves its resident sessions; it only stops receiving *new*
//     sessions so its population can run down to zero.
//
// New sessions require healthy && !draining. Requests for existing sessions
// always route to the home replica regardless of either bit: a session's
// state lives nowhere else, so diverting it could only turn a maybe-failure
// into a certain one.
type Replica struct {
	ID    int
	idStr string // preformatted metric label

	url atomic.Value // string; swapped when a restarted backend moves ports

	healthy  atomic.Bool
	draining atomic.Bool
	fails    atomic.Int32

	// slots is the per-replica in-flight admission gate (nil = unlimited);
	// inflight counts admitted session-scoped requests either way, which is
	// what RollingSwap polls to know the replica is quiescent.
	slots    chan struct{}
	inflight atomic.Int64

	requests atomic.Int64 // proxied requests (all routes)
	errors   atomic.Int64 // attempts that died on transport errors

	hmu    sync.Mutex
	health Health
}

func newReplica(id int, url string, perInflight int) *Replica {
	r := &Replica{ID: id, idStr: strconv.Itoa(id)}
	r.url.Store(url)
	if perInflight > 0 {
		r.slots = make(chan struct{}, perInflight)
	}
	return r
}

// URL returns the replica's current base URL ("http://host:port").
func (r *Replica) URL() string { return r.url.Load().(string) }

// SetURL repoints the replica — used when a swapped backend comes back on a
// different address. Ring position and identity are unchanged.
func (r *Replica) SetURL(u string) { r.url.Store(u) }

// Healthy reports whether the health-check loop currently trusts the replica.
func (r *Replica) Healthy() bool { return r.healthy.Load() }

// Draining reports whether a rolling swap is running the replica down.
func (r *Replica) Draining() bool { return r.draining.Load() }

// Ready reports whether the replica may receive new sessions.
func (r *Replica) Ready() bool { return r.healthy.Load() && !r.draining.Load() }

// Inflight returns the number of admitted session-scoped requests currently
// proxied to this replica.
func (r *Replica) Inflight() int64 { return r.inflight.Load() }

// Health returns the last health-check snapshot.
func (r *Replica) Health() Health {
	r.hmu.Lock()
	defer r.hmu.Unlock()
	return r.health
}

func (r *Replica) setHealth(h Health) {
	h.CheckedAt = time.Now()
	r.hmu.Lock()
	r.health = h
	r.hmu.Unlock()
}

// sessionFull reports whether the replica's own session-admission cap is
// exhausted per its last health report — the create path redraws keys past
// full replicas instead of burning a round trip on a certain 503.
func (r *Replica) sessionFull() bool {
	r.hmu.Lock()
	defer r.hmu.Unlock()
	return r.health.OK && r.health.MaxSessions > 0 && r.health.Headroom <= 0
}

// state renders the replica's combined condition for /healthz.
func (r *Replica) state() string {
	switch {
	case r.draining.Load():
		return "draining"
	case !r.healthy.Load():
		return "unready"
	default:
		return "ready"
	}
}
