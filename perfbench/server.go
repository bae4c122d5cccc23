package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/transport"
	"repro/promises"
)

// localEngine is what the benchmark needs from a served engine beyond the
// client-facing surface: seeding, and the state the output checks read.
type localEngine interface {
	promises.Engine
	CreatePool(id string, onHand int64, props map[string]promises.Value) error
	CreateInstance(id string, props map[string]promises.Value) error
	Pools() ([]*resource.Pool, error)
	ActivePromises() ([]promises.Promise, error)
}

// wrapFunc decorates the engine a node serves; tests use it to plant a
// faulty engine behind an otherwise real stack.
type wrapFunc func(transport.Engine) transport.Engine

// node is one promise manager served over loopback HTTP, assembled the way
// cmd/promised assembles it: promises.Open, service.RegisterStandard,
// transport.NewServer.
type node struct {
	id      string
	dir     string // data directory; "" in memory
	eng     localEngine
	srv     *http.Server
	ln      *countingListener
	url     string
	served  chan struct{} // closed when Serve returns
	watcher *watcher
}

// stack is a running deployment plus the client the generator drives.
type stack struct {
	w      *workload
	nodes  []*node
	target promises.Engine   // transport client, or cluster engine for federated-span
	rt     *tracingTransport // nil unless tracing
	pacers [workers]*pacer
	ledger *ledger
}

type stackOptions struct {
	workdir string
	rec     *recorder // non-nil: install span middleware and client transport
	wrap    wrapFunc
	rep     int // set-up repetition, to name data directories
}

func fedRing() *cluster.Ring {
	r, err := cluster.NewRing(fedNodes, 0)
	if err != nil {
		panic(err) // fedNodes is a fixed, valid member list
	}
	return r
}

// openStack builds, seeds and starts the deployment, takes the standing
// holds, and returns once a first request has succeeded.
func openStack(w *workload, m *mix, o stackOptions) (*stack, error) {
	st := &stack{w: w, ledger: newLedger()}
	ids := []string{"n"}
	if w.federated {
		ids = fedNodes
	}
	ring := fedRing()
	for _, id := range ids {
		opts := []promises.Option{promises.WithShards(w.shards)}
		n := &node{id: id, served: make(chan struct{})}
		if w.durable {
			n.dir = filepath.Join(o.workdir, "data", fmt.Sprintf("%s-%d-%d-%s", w.name, os.Getpid(), o.rep, id))
			if err := os.RemoveAll(n.dir); err != nil {
				return nil, err
			}
			// Group commit on the background cadence rather than an fsync
			// per request (SyncAlways): with an fsync wait in every request,
			// CPU time per request rose by half when the hypervisor stole
			// a third of the host's CPU time. Every record still reaches the
			// kernel before its request is answered, so the recovery check
			// of a copy of the data dir sees all of them.
			opts = append(opts, promises.WithDataDir(n.dir), promises.WithSyncPolicy(promises.SyncInterval))
		}
		if w.federated {
			opts = append(opts, promises.WithNodeID(id))
		}
		eng, err := promises.Open(opts...)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("open %s: %w", id, err)
		}
		n.eng = eng.(localEngine)
		st.nodes = append(st.nodes, n)
		for _, p := range m.pools {
			if w.federated && ring.Owner(p.id) != id {
				continue
			}
			if err := n.eng.CreatePool(p.id, p.stock, nil); err != nil {
				st.close()
				return nil, fmt.Errorf("seed pool %s: %w", p.id, err)
			}
		}
		for _, r := range m.rooms {
			if err := n.eng.CreateInstance(r.id, r.props); err != nil {
				st.close()
				return nil, fmt.Errorf("seed room %s: %w", r.id, err)
			}
		}
		if n.watcher, err = watch(n.eng); err != nil {
			st.close()
			return nil, err
		}
		if err := n.serve(o.rec, o.wrap); err != nil {
			st.close()
			return nil, err
		}
	}
	for _, p := range m.pools {
		st.ledger.seeded[p.id] = p.stock
	}

	// One connection per worker and node. A single shared connection per
	// node can deadlock federated-span: a cross-node reservation holds a
	// node's shard locks until its confirm, and the confirm would queue
	// behind a direct grant that is waiting for those locks.
	base := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}
	var rt http.RoundTripper = base
	if o.rec != nil {
		st.rt = &tracingTransport{next: base}
		rt = st.rt
	}
	hc := &http.Client{Transport: rt}
	var err error
	if w.federated {
		urls := map[string]string{}
		for _, n := range st.nodes {
			urls[n.id] = n.url
		}
		st.target, err = promises.Open(promises.WithCluster(urls), promises.WithClientID(benchClient), promises.WithHTTPClient(hc))
	} else {
		st.target, err = promises.Open(promises.WithRemote(st.nodes[0].url), promises.WithClientID(benchClient), promises.WithHTTPClient(hc))
	}
	if err != nil {
		st.close()
		return nil, err
	}

	for w := range st.pacers {
		if st.pacers[w], err = newPacer(); err != nil {
			st.close()
			return nil, err
		}
	}

	ctx := context.Background()
	for i := range m.standing {
		resp, err := st.target.Execute(ctx, promises.Request{Client: benchClient,
			PromiseRequests: []promises.PromiseRequest{{Predicates: m.standing[i].preds, Duration: holdDuration}}})
		if err == nil && !resp.Promises[0].Accepted {
			err = fmt.Errorf("rejected: %s", resp.Promises[0].Reason)
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("standing hold %d: %w", i, err)
		}
		st.ledger.standing = append(st.ledger.standing, resp.Promises[0].PromiseID)
		st.ledger.add(heldEvent(resp.Promises[0].PromiseID, m.standing[i].preds, 0))
	}
	if _, err := st.target.CheckBatch(ctx, benchClient, []string{"probe"}); err != nil {
		st.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return st, nil
}

// serve starts the node's HTTP listener on a loopback port.
func (n *node) serve(rec *recorder, wrap wrapFunc) error {
	var eng transport.Engine = &tracedEngine{next: n.eng, rec: rec}
	if wrap != nil {
		eng = wrap(eng)
	}
	reg := service.NewRegistry()
	service.RegisterStandard(reg)
	h := transport.NewServer(eng, reg).Handler()
	if rec != nil {
		h = spanMiddleware(rec, "server."+n.id, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.ln = &countingListener{Listener: ln}
	n.url = "http://" + ln.Addr().String()
	n.srv = &http.Server{Handler: h}
	go func() {
		defer close(n.served)
		if err := n.srv.Serve(n.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve %s: %v\n", n.id, err)
		}
	}()
	return nil
}

// stop shuts the listener and engine down and waits for both.
func (n *node) stop() error {
	var errs []error
	if n.srv != nil {
		errs = append(errs, n.srv.Close())
		<-n.served
	}
	if n.watcher != nil {
		n.watcher.stop()
	}
	errs = append(errs, n.eng.Close())
	return errors.Join(errs...)
}

// close stops every node and removes durable data directories.
func (st *stack) close() error {
	var errs []error
	if st.target != nil {
		errs = append(errs, st.target.Close())
	}
	for _, p := range st.pacers {
		if p != nil {
			errs = append(errs, p.close())
		}
	}
	for _, n := range st.nodes {
		errs = append(errs, n.stop())
		if n.dir != "" {
			errs = append(errs, os.RemoveAll(n.dir))
		}
	}
	return errors.Join(errs...)
}

// accepts counts the TCP connections every node has accepted.
func (st *stack) accepts() int64 {
	var n int64
	for _, nd := range st.nodes {
		n += nd.ln.n.Load()
	}
	return n
}

// stats sums the nodes' engine counters.
func (st *stack) stats() promises.Stats {
	var s promises.Stats
	for _, n := range st.nodes {
		x := n.eng.Stats()
		s.Requests += x.Requests
		s.Grants += x.Grants
		s.Rejections += x.Rejections
		s.DeadlockRetries += x.DeadlockRetries
		s.PrefilterSkipped += x.PrefilterSkipped
		s.Imbalance = max(s.Imbalance, x.Imbalance)
	}
	return s
}

// dataBytes sums the size of every durable data directory.
func (st *stack) dataBytes() int64 {
	var total int64
	for _, n := range st.nodes {
		if n.dir == "" {
			continue
		}
		_ = filepath.Walk(n.dir, func(_ string, fi os.FileInfo, err error) error {
			if err == nil && fi.Mode().IsRegular() {
				total += fi.Size()
			}
			return nil
		})
	}
	return total
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	n atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// watcher is a Watch subscriber on one engine. While armed it records how
// many events arrive, how late, and how many sequence numbers are missing.
type watcher struct {
	cancel context.CancelFunc
	done   chan struct{}
	armed  atomic.Bool

	mu     sync.Mutex
	events int64
	gaps   int64
	lagUS  []float64
}

func watch(e promises.Engine) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	// The buffer absorbs bursts while the subscriber is descheduled; a
	// drop still shows as a sequence gap.
	ch, err := e.Watch(ctx, promises.WatchOptions{Buffer: 1 << 14, SlowPolicy: promises.SlowDrop})
	if err != nil {
		cancel()
		return nil, err
	}
	w := &watcher{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var last uint64
		for ev := range ch {
			now := time.Now()
			if w.armed.Load() {
				w.mu.Lock()
				w.events++
				if last != 0 && ev.Seq > last+1 {
					w.gaps += int64(ev.Seq - last - 1)
				}
				w.lagUS = append(w.lagUS, float64(now.Sub(ev.Time))/1e3)
				w.mu.Unlock()
			}
			last = ev.Seq
		}
	}()
	return w, nil
}

func (w *watcher) stop() {
	w.cancel()
	<-w.done
}

// take returns and resets what was recorded since the last take.
func (w *watcher) take() (events, gaps int64, lagUS []float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	events, gaps, lagUS = w.events, w.gaps, w.lagUS
	w.events, w.gaps, w.lagUS = 0, 0, nil
	return
}
