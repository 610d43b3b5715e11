package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds every request the load generator sends. A request
// that misses it is a failure; nothing is ever retried.
const requestTimeout = 10 * time.Second

// candidate is one scored auxiliary user of a served reply.
type candidate struct {
	User  int     `json:"user"`
	Score float64 `json:"score"`
}

// conn is one closed-loop client: a private transport capped at a single
// TCP connection, so "2 client connections" means exactly two sockets.
type conn struct {
	client *http.Client
}

func newConn() *conn {
	return &conn{client: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends one JSON body and returns the status and the whole reply.
func (c *conn) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

// queryBody encodes one query request for the deployment's endpoint.
func queryBody(d *deployment, users []int) []byte {
	var v any
	if d.batch == 1 {
		v = struct {
			User   int  `json:"user"`
			K      int  `json:"k"`
			Approx bool `json:"approx,omitempty"`
		}{users[0], topK, d.approx}
	} else {
		v = struct {
			Users  []int `json:"users"`
			K      int   `json:"k"`
			Approx bool  `json:"approx,omitempty"`
		}{users, topK, d.approx}
	}
	b, _ := json.Marshal(v) // ints and bools cannot fail to encode
	return b
}

// parseReply turns a query reply into one candidate list per requested
// user, or says why the reply counts as a failure: a non-200 status, a
// malformed body, a partial (degraded) answer, or the wrong shape. want is
// the number of users asked for and k the list length each must have.
func parseReply(status int, body []byte, want, k int) ([][]candidate, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.120s", status, body)
	}
	var reply struct {
		Candidates []candidate   `json:"candidates"`
		Results    [][]candidate `json:"results"`
		Partial    bool          `json:"partial"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, fmt.Errorf("malformed reply: %v", err)
	}
	if reply.Partial {
		return nil, errors.New("partial reply")
	}
	out := reply.Results
	if out == nil && reply.Candidates != nil {
		out = [][]candidate{reply.Candidates}
	}
	if len(out) != want {
		return nil, fmt.Errorf("reply answers %d users, want %d", len(out), want)
	}
	for _, cs := range out {
		if len(cs) != k {
			return nil, fmt.Errorf("reply lists %d candidates, want %d", len(cs), k)
		}
	}
	return out, nil
}

// query asks the deployment for the top-k of users over this connection.
func (c *conn) query(d *deployment, users []int) ([][]candidate, error) {
	status, body, err := c.post(d.base+d.path, queryBody(d, users))
	if err != nil {
		return nil, err
	}
	return parseReply(status, body, len(users), topK)
}

// ingestUser POSTs one new user to every ingesting server at once and
// succeeds only if all accept it under the same id: the caller sends the
// next user after every server has answered, so the servers of a sliced
// fleet see the same order and assign the same ids.
func (c *conn) ingestUser(d *deployment, u newUser) error {
	body, _ := json.Marshal(u) // strings and ints cannot fail to encode
	ids, errs := make([]int, len(d.ingest)), make([]error, len(d.ingest))
	var wg sync.WaitGroup
	for i, base := range d.ingest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i], errs[i] = c.ingestOne(base, body)
		}()
	}
	wg.Wait()
	for i := range ids {
		if errs[i] != nil {
			return errs[i]
		}
		if ids[i] != ids[0] {
			return fmt.Errorf("servers disagree on the new user's id: %d and %d", ids[0], ids[i])
		}
	}
	return nil
}

func (c *conn) ingestOne(base string, body []byte) (int, error) {
	status, reply, err := c.post(base+"/v1/ingest", body)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("ingest status %d: %.120s", status, reply)
	}
	var ack struct {
		User *int `json:"user"`
	}
	if err := json.Unmarshal(reply, &ack); err != nil || ack.User == nil {
		return 0, fmt.Errorf("malformed ingest reply: %.120s", reply)
	}
	return *ack.User, nil
}

// phase is the accounting of one stretch of load: requests sent, succeeded
// and failed, the wall time it covered, user-queries (or ingests) answered,
// and one latency sample per successful request.
type phase struct {
	Name      string  `json:"name"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Seconds   float64 `json:"seconds"`
	// Units counts what the requests answered: a batch of 8 counts 8.
	Units int `json:"units"`
	// FirstError keeps the first failure's text for the report.
	FirstError string `json:"first_error,omitempty"`
	// Per successful request: its latency, and when it completed (since
	// the phase began) with how many units.
	latMS []float64
	done  []completion
}

type completion struct {
	at    time.Duration
	units int
}

// record tallies one request: lat is its latency, at its completion time
// since the phase began.
func (p *phase) record(units int, lat, at time.Duration, err error) {
	p.Sent++
	if err != nil {
		p.Failed++
		if p.FirstError == "" {
			p.FirstError = err.Error()
		}
		return
	}
	p.Succeeded++
	p.Units += units
	p.latMS = append(p.latMS, float64(lat)/float64(time.Millisecond))
	p.done = append(p.done, completion{at, units})
}

// merge folds a per-connection tally into p.
func (p *phase) merge(q phase) {
	p.Sent += q.Sent
	p.Succeeded += q.Succeeded
	p.Failed += q.Failed
	p.Units += q.Units
	if p.FirstError == "" {
		p.FirstError = q.FirstError
	}
	p.latMS = append(p.latMS, q.latMS...)
	p.done = append(p.done, q.done...)
}

// rate is units answered per second of the phase.
func (p *phase) rate() float64 {
	if p.Seconds <= 0 {
		return 0
	}
	return float64(p.Units) / p.Seconds
}

// medianRate cuts the phase into whole slices of the given length and
// returns the median slice's units per second, which a collector cycle or
// a scheduling hiccup in one slice does not move. A phase shorter than two
// slices reports its plain rate.
func (p *phase) medianRate(slice time.Duration) float64 {
	n := int(time.Duration(p.Seconds*float64(time.Second)) / slice)
	if n < 2 {
		return p.rate()
	}
	units := make([]float64, n)
	for _, c := range p.done {
		if i := int(c.at / slice); i < n {
			units[i] += float64(c.units)
		}
	}
	return median(units) / slice.Seconds()
}

// queryOrder is the seeded sequence in which anonymized users are queried:
// a shuffle of [0, n) the connections walk with one shared cursor, cycling.
func queryOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// cursor hands out the next users of the query order to whichever
// connection asks first.
type cursor struct {
	order []int
	next  atomic.Int64
}

func (c *cursor) take(n int) []int {
	at := int(c.next.Add(int64(n))) - n
	out := make([]int, n)
	for i := range out {
		out[i] = c.order[(at+i)%len(c.order)]
	}
	return out
}

// queryLoop sends queries back to back on one connection from begin until
// the deadline, recording a span per request when rec is non-nil.
func queryLoop(d *deployment, c *conn, cur *cursor, begin, deadline time.Time, rec *recorder) phase {
	var p phase
	for time.Now().Before(deadline) {
		users := cur.take(d.batch)
		start := time.Now()
		_, err := c.query(d, users)
		end := time.Now()
		p.record(len(users), end.Sub(start), end.Sub(begin), err)
		if rec != nil {
			rec.add(span{Query: users[0], Name: "bench.request"}, start, end)
		}
	}
	return p
}

// settle runs a collection before a measured phase, so every phase starts
// from the same heap state instead of inheriting a cycle that set-up or
// the previous phase left due at an arbitrary moment.
func settle() { runtime.GC() }

// queryPhase drives the deployment with every connection in closed loop
// for the given duration.
func queryPhase(name string, d *deployment, conns []*conn, cur *cursor, dur time.Duration, rec *recorder) phase {
	settle()
	start := time.Now()
	parts := make([]phase, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = queryLoop(d, c, cur, start, start.Add(dur), rec)
		}()
	}
	wg.Wait()
	p := phase{Name: name, Seconds: time.Since(start).Seconds()}
	for _, q := range parts {
		p.merge(q)
	}
	return p
}

// mixedPhase keeps the first connection querying while the second ingests
// new users, so a read gain bought with a slower write path shows. Before
// each ingest the writer thinks for a seeded random time of up to one flush
// interval: two bare closed loops lock into whichever phase relation they
// start in — an ingest that always arrives just after a flush began waits
// the whole flush, one that arrives just before waits nothing — and that
// made ingest_per_s differ by a third between runs of one commit.
func mixedPhase(d *deployment, conns []*conn, cur *cursor, newUsers []newUser, dur time.Duration, seed int64) (queries, ingests phase) {
	settle()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		queries = queryLoop(d, conns[0], cur, start, deadline, nil)
	}()
	think := rand.New(rand.NewSource(seed))
	for i := 0; time.Now().Before(deadline); i++ {
		time.Sleep(time.Duration(think.Int63n(int64(serveFlushMS * time.Millisecond))))
		u := newUsers[i%len(newUsers)]
		if lap := i / len(newUsers); lap > 0 {
			u.Name = fmt.Sprintf("%s-lap%d", u.Name, lap)
		}
		t0 := time.Now()
		err := conns[1].ingestUser(d, u)
		ingests.record(1, time.Since(t0), time.Since(start), err)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	queries.Name, queries.Seconds = "mixed_query", secs
	ingests.Name, ingests.Seconds = "mixed_ingest", secs
	return queries, ingests
}
