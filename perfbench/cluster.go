package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"time"

	"csmaterials/internal/fleet"
	"csmaterials/internal/server"
)

// node is one server.Server behind a real net/http server on a loopback
// listener.
type node struct {
	id   string
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
	// fleetClient is the replica's peer client (fleet only); the traced
	// replay times its round trips as fleet.forward spans.
	fleetClient *http.Client
}

// cluster is the system under test for one set-up: a single node, or a
// fleet of replicas that forward to each other.
type cluster struct {
	nodes []*node
}

// startCluster builds n servers, each on its own loopback listener. With
// n > 1 every replica joins one fleet over the listeners' addresses.
// Construction time counts toward setup_s, so it happens here and not
// before the timer starts.
func startCluster(n, cacheSize int, t *tracer) (*cluster, error) {
	cl := &cluster{}
	lns := make([]net.Listener, n)
	var peers []fleet.Peer
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		peers = append(peers, fleet.Peer{ID: fmt.Sprintf("n%d", i), URL: "http://" + ln.Addr().String()})
	}
	for i, ln := range lns {
		nd := &node{id: peers[i].ID, base: peers[i].URL, done: make(chan error, 1)}
		opts := server.Options{CacheSize: cacheSize}
		if n > 1 {
			nd.fleetClient = &http.Client{Transport: &spanTransport{base: newTransport(4), t: t}}
			f, err := fleet.New(fleet.Config{Self: nd.id, Peers: peers}, fleet.Options{Client: nd.fleetClient})
			if err != nil {
				closeListeners(lns[i:])
				cl.close()
				return nil, err
			}
			opts.Fleet = f
		}
		srv, err := server.NewWithOptions(opts)
		if err != nil {
			closeListeners(lns[i:])
			cl.close()
			return nil, err
		}
		nd.srv = srv
		nd.hs = &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
		go func(hs *http.Server, ln net.Listener, done chan error) {
			done <- hs.Serve(ln)
		}(nd.hs, ln, nd.done)
		cl.nodes = append(cl.nodes, nd)
	}
	return cl, nil
}

func closeListeners(lns []net.Listener) {
	for _, l := range lns {
		_ = l.Close()
	}
}

// close shuts every listener down, waits for its serve loop to return
// and for background warmups to drain.
func (cl *cluster) close() {
	for _, nd := range cl.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = nd.hs.Shutdown(ctx)
		cancel()
		<-nd.done
		nd.srv.DrainBackground()
		if nd.fleetClient != nil {
			nd.fleetClient.CloseIdleConnections()
		}
	}
}

// newTransport is a loopback transport capped at conns connections per
// host.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}

// response is what the load generator keeps of one reply.
type response struct {
	status  int
	hash    uint64
	rounded uint64 // search replies: hash with scores rounded (see roundScores)
}

// send issues o against base and reads the whole reply.
func send(ctx context.Context, c *http.Client, base string, o *op) (response, error) {
	method := http.MethodGet
	var body io.Reader
	switch o.kind {
	case opBatch:
		method, body = http.MethodPost, bytes.NewReader(o.body)
	case opPatch:
		method, body = http.MethodPatch, bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+o.path, body)
	if err != nil {
		return response{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	h := fnv.New64a()
	var buf bytes.Buffer
	w := io.Writer(h)
	if o.search != nil {
		w = io.MultiWriter(h, &buf)
	}
	if _, err := io.Copy(w, resp.Body); err != nil {
		return response{}, err
	}
	r := response{status: resp.StatusCode, hash: h.Sum64()}
	if o.search != nil {
		r.rounded = hashOf(roundScores(buf.Bytes()))
	}
	return r, nil
}

// put ingests a tenant's initial corpus on every node.
func (cl *cluster) put(ctx context.Context, c *http.Client, t *tenant) error {
	body := t.putBody()
	for _, nd := range cl.nodes {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, nd.base+"/api/v1/datasets/"+t.id, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.Do(req)
		if err != nil {
			return fmt.Errorf("PUT %s: %w", t.id, err)
		}
		b, _ := io.ReadAll(resp.Body) // only quoted in the error below
		_ = resp.Body.Close()         // fully read; nothing to report
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("PUT %s: status %d: %s", t.id, resp.StatusCode, b)
		}
	}
	return nil
}

// waitReady polls /readyz on every node until the default dataset and
// every tenant report ready, so no background warmup runs into the
// measured phase.
func (cl *cluster) waitReady(ctx context.Context, c *http.Client, tenants []*tenant) error {
	deadline := time.Now().Add(60 * time.Second)
	for _, nd := range cl.nodes {
		for {
			ok, err := ready(ctx, c, nd.base, tenants)
			if err != nil {
				return err
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %s not ready after 60s", nd.id)
			}
			// Poll again at once: sleeping would let the CPUs go idle,
			// and the next ingest step would pay their wake-up.
		}
	}
	return nil
}

func ready(ctx context.Context, c *http.Client, base string, tenants []*tenant) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var body struct {
		Data server.ReadyResponse `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, nil
	}
	for _, t := range tenants {
		if body.Data.Datasets[t.id].Status != "ready" {
			return false, nil
		}
	}
	return true, nil
}
