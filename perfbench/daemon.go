package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/budget"
	"repro/internal/server"
	"repro/internal/store"
)

// stateCap is the daemon's StatePool bound, an assumed value. It sits
// well below the number of package names a slice of serve-edits
// traffic submits, so old names are evicted within a slice and come
// back through the store, and it leaves dozens of names in the window
// that is surely resident (see lru).
const stateCap = 48

// daemon is one in-process graphjsd: server.New behind the transport
// NewHTTPServer builds, on a loopback port, with a store in a fresh
// directory. Options other than the store and the StatePool bound are
// the program's defaults. The store runs without per-append fsync (the
// setting internal/store provides for benchmarks): on a shared disk an
// fsync's latency measures the neighbours' I/O, not this program, and
// it made request latency vary threefold between identical runs. The
// traced run times the sync on its own (store.sync_ms).
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	st     *store.Store
	dir    string
	url    string
	client *http.Client
	served chan error
}

func startDaemon(parent string, conns int) (*daemon, error) {
	dir, err := os.MkdirTemp(parent, "store-")
	if err != nil {
		return nil, fmt.Errorf("store dir: %w", err)
	}
	st, err := store.Open(dir, store.Options{NoFsync: true})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("open store: %w", err)
	}
	srv := server.New(server.Options{Store: st, StateMaxEntries: stateCap})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:    srv,
		hs:     srv.NewHTTPServer(ln.Addr().String(), server.HTTPOptions{}),
		st:     st,
		dir:    dir,
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener, waits for the serve loop and every
// in-flight scan, closes the store and removes its directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.srv.Drain()
	d.client.CloseIdleConnections()
	err = errors.Join(err, d.st.Close(), os.RemoveAll(d.dir))
	return err
}

// reply is the outcome of one /v1/scan call, reduced to what the
// benchmark checks and reports so that a run's bookkeeping does not
// swell the heap the daemon is measured in.
type reply struct {
	code     int
	err      error // transport or decoding error
	rtt      time.Duration
	failure  string // the scan's failure class ("" when clean)
	scanErr  string
	findings []finding
	scanMs   float64 // the phases the daemon reports: graphMs + detectMs
	incr     *server.IncrStatsJSON
}

// failed reports whether the call counts as a failed attempt: a
// transport error, a non-200 status (429 shedding included), or a scan
// that ended in a failure class or with an error.
func (r reply) failed() bool {
	return r.err != nil || r.code != http.StatusOK || r.failure != string(budget.ClassNone) || r.scanErr != ""
}

func (d *daemon) scan(body []byte) reply {
	t0 := time.Now()
	resp, err := d.client.Post(d.url+"/v1/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, rtt: time.Since(t0)}
	}
	defer resp.Body.Close()
	r := reply{code: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		var sr server.ScanResponse
		if r.err = json.NewDecoder(resp.Body).Decode(&sr); r.err == nil {
			r.failure, r.scanErr = sr.Failure, sr.ScanError
			r.findings = fromServer(sr.Findings)
			r.scanMs = sr.Stats.GraphMs + sr.Stats.DetectMs
			r.incr = sr.Incremental
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	}
	r.rtt = time.Since(t0)
	return r
}

func (d *daemon) get(path string, v any) error { return getJSON(d.client, d.url+path, v) }

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
