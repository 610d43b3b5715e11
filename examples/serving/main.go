// The serving example runs the full online-attack loop in one process: it
// prepares an auxiliary world, starts the dehealthd query service on a
// loopback port, then plays the adversary's client — observing "new"
// anonymous accounts (held-out posts of known auxiliary users), ingesting
// them over HTTP and asking the service who they are.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	"dehealth"
)

func main() {
	// The evaluation world: WebMD-like forum, half of each user's posts as
	// the auxiliary (adversary) side, the other half standing in for newly
	// observed anonymous accounts.
	world := dehealth.GenerateWorld(dehealth.WorldConfig{WebMDUsers: 120, HBUsers: 120, Seed: 11})
	split := dehealth.SplitClosedWorld(world.WebMD, 0.5, 12)

	opt := dehealth.DefaultOptions()
	opt.Landmarks = 10
	opt.MaxBigrams = 100

	// Serve over an initially empty anonymized side: every account the
	// service knows about will have arrived through /v1/ingest.
	pw := dehealth.PrepareWorld(&dehealth.Dataset{Name: "observed"}, split.Aux, opt)
	srv := dehealth.NewServer(pw, dehealth.ServeOptions{K: 5, Attack: opt})
	defer srv.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := srv.Serve(l); err != nil {
			log.Fatal(err)
		}
	}()
	base := "http://" + l.Addr().String()
	fmt.Printf("dehealthd serving on %s\n\n", base)

	// Observe five anonymous accounts: ingest their held-out posts, then ask
	// for each one's top candidates in the auxiliary world.
	byUser := split.Anon.PostsByUser()
	observed := 0
	for u := 0; u < split.Anon.NumUsers() && observed < 5; u++ {
		if len(byUser[u]) < 3 {
			continue
		}
		observed++
		var posts []map[string]any
		for _, pi := range byUser[u] {
			posts = append(posts, map[string]any{"text": split.Anon.Posts[pi].Text})
		}
		var ingest struct {
			User int `json:"user"`
		}
		postJSON(base+"/v1/ingest", map[string]any{
			"name":  split.Anon.Users[u].Name,
			"posts": posts,
		}, &ingest)

		var reply struct {
			Candidates []struct {
				User  int     `json:"user"`
				Score float64 `json:"score"`
			} `json:"candidates"`
		}
		postJSON(base+"/v1/query", map[string]any{"user": ingest.User, "k": 3}, &reply)

		truth := split.TrueMapping[u]
		fmt.Printf("observed %-12q -> ingested as user %d, top candidates:\n", split.Anon.Users[u].Name, ingest.User)
		for rank, c := range reply.Candidates {
			mark := ""
			if c.User == truth {
				mark = "   <- true identity"
			}
			fmt.Printf("  #%d aux user %-4d (%q) score %.4f%s\n", rank+1, c.User, split.Aux.Users[c.User].Name, c.Score, mark)
		}
	}

	var stats map[string]any
	getJSON(base+"/v1/stats", &stats)
	fmt.Printf("\nstats: anon_users=%v aux_users=%v queries=%v ingests=%v backend_calls=%v backend_us=%v\n",
		stats["anon_users"], stats["aux_users"], stats["queries"], stats["ingests"],
		stats["batches"], stats["backend_us"])
}

func postJSON(url string, body, out any) {
	buf, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
