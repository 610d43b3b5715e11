package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// okReply is a well-formed single-query reply with k candidates.
func okReply() string {
	var cs []string
	for i := 0; i < topK; i++ {
		cs = append(cs, fmt.Sprintf(`{"user":%d,"score":%g}`, i, 1.0/float64(i+1)))
	}
	return `{"user":3,"candidates":[` + strings.Join(cs, ",") + `]}`
}

func TestParseReplyClassifiesFailures(t *testing.T) {
	ok := okReply()
	batch := `{"results":[` + strings.TrimPrefix(strings.TrimSuffix(ok, "}"), `{"user":3,"candidates":`) + `]}`
	for _, c := range []struct {
		name   string
		status int
		body   string
		want   int
		fails  bool
	}{
		{"ok", 200, ok, 1, false},
		{"ok batch", 200, batch, 1, false},
		{"refused", 503, `{"error":"serve: server closed"}`, 1, true},
		{"bad request", 400, `{"error":"user out of range"}`, 1, true},
		{"partial", 200, `{"results":[[]],"partial":true,"missing_shards":[1]}`, 1, true},
		{"truncated", 200, ok[:len(ok)/2], 1, true},
		{"not json", 200, "ok", 1, true},
		{"empty object", 200, `{}`, 1, true},
		{"wrong user count", 200, batch, 2, true},
		{"short list", 200, `{"user":3,"candidates":[{"user":1,"score":0.5}]}`, 1, true},
	} {
		lists, err := parseReply(c.status, []byte(c.body), c.want, topK)
		if (err != nil) != c.fails {
			t.Errorf("%s: err = %v, want failure %v", c.name, err, c.fails)
		}
		if err == nil && (len(lists) != c.want || len(lists[0]) != topK) {
			t.Errorf("%s: parsed %d lists", c.name, len(lists))
		}
	}
}

// The fail ratio counts every kind of bad outcome against the requests
// attempted, and nothing is retried: one request, one tally.
func TestFailRatioCountsRefusedAndPartial(t *testing.T) {
	replies := []struct {
		status int
		body   string
	}{
		{200, okReply()},
		{503, `{"error":"serve: server closed"}`},
		{200, `{"user":3,"candidates":[],"partial":true}`},
		{200, "garbage"},
		{200, okReply()},
	}
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reply := replies[int(hits.Add(1)-1)%len(replies)]
		w.WriteHeader(reply.status)
		fmt.Fprint(w, reply.body)
	}))
	d := &deployment{base: ts.URL, path: "/v1/query", batch: 1}
	c := newConn()
	defer c.close()
	var p phase
	for range replies {
		_, err := c.query(d, []int{3})
		p.record(1, 0, 0, err)
	}
	ts.Close()
	// A transport error (nobody listening any more) is a failure too.
	_, err := c.query(d, []int{3})
	p.record(1, 0, 0, err)

	if p.Sent != 6 || p.Succeeded != 2 || p.Failed != 4 || p.Units != 2 {
		t.Errorf("tally = sent %d succeeded %d failed %d units %d, want 6/2/4/2", p.Sent, p.Succeeded, p.Failed, p.Units)
	}
	if got := hits.Load(); got != int64(len(replies)) {
		t.Errorf("server saw %d requests for %d sends: something retried", got, len(replies))
	}
	if got, want := successRatio(p), 1-float64(4)/float64(6); got != want {
		t.Errorf("success ratio = %g, want %g", got, want)
	}
	if !strings.Contains(p.FirstError, "503") {
		t.Errorf("first error = %q, want the 503", p.FirstError)
	}
}

func TestQueryOrderIsSeededAndCycles(t *testing.T) {
	a, b := queryOrder(42, 500), queryOrder(42, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different query order")
	}
	if reflect.DeepEqual(a, queryOrder(43, 500)) {
		t.Error("different seeds, same query order")
	}
	perm := append([]int(nil), a...)
	sort.Ints(perm)
	for i, u := range perm {
		if u != i {
			t.Fatalf("query order is not a permutation of [0, 500): position %d holds %d", i, u)
		}
	}
	if !reflect.DeepEqual(sampleUsers(7, 500, 20), sampleUsers(7, 500, 20)) {
		t.Error("same seed, different sample users")
	}

	cur := &cursor{order: a}
	var walked []int
	for len(walked) < 2*len(a) {
		walked = append(walked, cur.take(8)...)
	}
	for i, u := range walked {
		if u != a[i%len(a)] {
			t.Fatalf("cursor position %d = %d, want %d", i, u, a[i%len(a)])
		}
	}
}
