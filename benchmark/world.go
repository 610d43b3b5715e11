package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dehealth"
	"dehealth/internal/core"
	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/graph"
	"dehealth/internal/index"
	"dehealth/internal/router"
	"dehealth/internal/serve"
	"dehealth/internal/shard"
	"dehealth/internal/similarity"
	"dehealth/internal/synth"
)

// inputs is everything a run generates before the clock of setup_s starts:
// the world's raw data and the mixed phase's new users. The system under
// test receives only these.
type inputs struct {
	// split is the dense forum's closed-world partition (dense workloads).
	split *corpus.Split
	// g1 and g2 are the anonymized and auxiliary UDA graphs of sparse_walk.
	g1, g2 *graph.UDA
	// newUsers feeds the mixed phase's POST /v1/ingest calls.
	newUsers []newUser

	anonUsers, auxUsers int
	// users and posts are the generated corpus' dimensions (both sides).
	users, posts int
	// truth maps an anonymized user to its auxiliary identity.
	truth      map[int]int
	genSeconds float64
}

// ingestPost and newUser are the /v1/ingest wire shapes.
type ingestPost struct {
	Thread *int   `json:"thread,omitempty"`
	Text   string `json:"text"`
}

type newUser struct {
	Name  string       `json:"name"`
	Posts []ingestPost `json:"posts"`
}

// worldSeed generates every workload's world. The world is part of a
// workload's definition, like its size: a forum's post count, and with it
// set-up time, memory and the cost of an ingest, moves by a quarter from
// one generated forum to the next (a few dozen power users write a fifth of
// the posts), which would drown any regression bound. The run's seed drives
// the traffic instead: the query order, the users the check samples, and
// the new users the mixed phase ingests.
const worldSeed = 2020

// generate builds a workload's inputs: the world from worldSeed, the
// traffic from seed.
func generate(w workload, sz sizes, seed int64) *inputs {
	start := time.Now()
	in := &inputs{}
	rng := rand.New(rand.NewSource(seed + 1))
	if w.Sparse {
		in.g1 = synth.SparseAttrUDA(sz.SparseAnon, sz.SparseCommunity, sz.SparseDim, worldSeed)
		in.g2 = synth.SparseAttrUDA(sz.SparseAux, sz.SparseCommunity, sz.SparseDim, worldSeed+1)
		in.anonUsers, in.auxUsers = sz.SparseAnon, sz.SparseAux
		in.users = sz.SparseAnon + sz.SparseAux
		// The sparse world has no text: a new account names the existing
		// anonymized user it co-posts with (see sparseBackend.Ingest).
		n := 4 * sz.IngestAccounts
		for i := 0; i < n; i++ {
			peer := rng.Intn(sz.SparseAnon)
			in.newUsers = append(in.newUsers, newUser{
				Name:  fmt.Sprintf("new-%d-%d", seed, i),
				Posts: []ingestPost{{Thread: &peer, Text: "x"}, {Text: "x"}},
			})
		}
	} else {
		u := synth.NewUniverse(sz.DenseAccounts+sz.DenseAccounts/2, worldSeed)
		members := synth.Members(u, sz.DenseAccounts, rand.New(rand.NewSource(worldSeed+1)))
		forum := synth.Generate(synth.WebMDLike(sz.DenseAccounts, worldSeed+2), u, members)
		in.split = corpus.SplitClosedWorld(forum, 0.5, rand.New(rand.NewSource(worldSeed+3)))
		in.anonUsers, in.auxUsers = len(in.split.Anon.Users), len(in.split.Aux.Users)
		in.users, in.posts = len(forum.Users), len(forum.Posts)
		in.truth = in.split.TrueMapping
		// New users take their text from a side forum of the same universe:
		// consecutive posts pair up into one two-post account, the first a
		// reply under an existing anonymized thread, the second a new thread.
		side := synth.Generate(synth.WebMDLike(sz.IngestAccounts, seed+2), u, synth.Members(u, sz.IngestAccounts, rng))
		threads := len(in.split.Anon.Threads)
		for i := 0; i+1 < len(side.Posts); i += 2 {
			t := rng.Intn(threads)
			in.newUsers = append(in.newUsers, newUser{
				Name:  fmt.Sprintf("new-%d-%d", seed, i/2),
				Posts: []ingestPost{{Thread: &t, Text: side.Posts[i].Text}, {Text: side.Posts[i+1].Text}},
			})
		}
	}
	in.genSeconds = time.Since(start).Seconds()
	return in
}

// deployment is one served system: where the clients send queries, where
// new users are ingested, and the in-process exact answer the served
// top-10 must equal bit for bit.
type deployment struct {
	// base and path address the query endpoint; batch is how many users one
	// request carries (1 for /v1/query, routedBatch for /v1/batch).
	base, path string
	batch      int
	approx     bool
	// ingest lists the servers a new user is POSTed to, in order. The
	// router refuses ingestion by design, so a sliced fleet is grown by
	// telling every shard server.
	ingest []string
	// oracle is the in-process exact top-k of an anonymized user.
	oracle func(u int) ([]shard.Candidate, error)

	// The handles the traced run measures layer by layer.
	pw     *dehealth.PreparedWorld   // the dense world (nil on sparse_walk)
	opt    dehealth.Options          // the options queries run under
	sparse *sparseBackend            // the sparse world (nil otherwise)
	slices []*dehealth.PreparedWorld // routed_batch's loaded slices
	shards []string                  // routed_batch's shard server URLs
	server string                    // a single serve.Server's URL: base, or shard 0 when routed
	rt     *router.Router

	// sub holds set-up sub-timings in seconds, by per-layer metric name.
	sub     map[string]float64
	closers []func()
}

// close stops every server and the router, newest first.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (d *deployment) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(l) // returns ErrServerClosed on Shutdown
	}()
	d.closers = append(d.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			_ = hs.Close()
		}
		<-done
	})
	return "http://" + l.Addr().String(), nil
}

// serveWorld puts a dehealth server with dehealthd's flag defaults in front
// of a prepared world.
func (d *deployment) serveWorld(pw *dehealth.PreparedWorld, opt dehealth.Options) (string, error) {
	srv := dehealth.NewServer(pw, dehealth.ServeOptions{
		Batch:         serveBatch,
		FlushInterval: serveFlushMS * time.Millisecond,
		K:             topK,
		Attack:        opt,
	})
	d.closers = append(d.closers, func() { _ = srv.Close() })
	return d.listen(srv.Handler())
}

// deploy builds the workload's served system from ready inputs. The caller
// times it (plus the first answer) as setup_s. tmp holds snapshot slices.
func deploy(w workload, in *inputs, tmp string) (d *deployment, err error) {
	d = &deployment{path: "/v1/query", batch: 1, approx: w.Approx, sub: map[string]float64{}}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if w.Sparse {
		return d, d.deploySparse(in)
	}
	opt := dehealth.DefaultOptions()
	opt.Shards = worldShards
	opt.Approx.Enabled = w.Approx
	exact := opt
	exact.Approx.Enabled = false

	start := time.Now()
	d.pw, d.opt = dehealth.PrepareWorld(in.split.Anon, in.split.Aux, opt), opt
	// The first query builds the pipeline (scorer, shards, indexes).
	if _, err := d.pw.QueryUser(0, topK, opt); err != nil {
		return d, err
	}
	d.sub["dehealth.prepare_s"] = time.Since(start).Seconds()
	d.oracle = func(u int) ([]shard.Candidate, error) { return d.pw.QueryUser(u, topK, exact) }

	if !w.Routed {
		d.base, err = d.serveWorld(d.pw, opt)
		d.ingest, d.server = []string{d.base}, d.base
		return d, err
	}

	start = time.Now()
	paths, err := d.pw.SnapshotSlices(filepath.Join(tmp, "world"))
	if err != nil {
		return d, err
	}
	d.sub["snapshot.slice_write_s"] = time.Since(start).Seconds()
	d.closers = append(d.closers, func() {
		for _, p := range paths {
			_ = os.Remove(p)
		}
	})
	start = time.Now()
	for _, p := range paths {
		sw, err := dehealth.LoadWorld(p, dehealth.LoadOptions{})
		if err != nil {
			return d, err
		}
		url, err := d.serveWorld(sw, sw.PreparedOptions())
		if err != nil {
			return d, err
		}
		d.slices, d.shards = append(d.slices, sw), append(d.shards, url)
	}
	d.sub["snapshot.slice_load_s"] = time.Since(start).Seconds()
	topo := make([][]string, len(d.shards))
	for i, u := range d.shards {
		topo[i] = []string{u}
	}
	if d.rt, err = router.New(router.Config{Shards: topo}); err != nil {
		return d, err
	}
	d.closers = append(d.closers, d.rt.Close)
	d.base, err = d.listen(d.rt.Handler())
	d.path, d.batch = "/v1/batch", routedBatch
	d.ingest, d.server = d.shards, d.shards[0]
	return d, err
}

// sparseSimilarity is the paper's weighting at the sparse world's landmark
// count (the dense worlds take dehealth.DefaultOptions' 50).
var sparseSimilarity = similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: sparseLandmarks}

func (d *deployment) deploySparse(in *inputs) error {
	sc := similarity.NewScorer(in.g1, in.g2, sparseSimilarity)
	exact := shard.New(sc, in.g2, nil, worldShards)
	d.sparse = &sparseBackend{g1: in.g1, sc: sc, exact: exact, approx: exact.WithApprox(index.Config{}, nil)}
	d.oracle = func(u int) ([]shard.Candidate, error) { return d.sparse.QueryUser(u, topK) }
	srv := serve.New(d.sparse, serve.Config{
		MaxBatch:      serveBatch,
		FlushInterval: serveFlushMS * time.Millisecond,
		DefaultK:      topK,
	})
	d.closers = append(d.closers, func() { _ = srv.Close() })
	var err error
	d.base, err = d.listen(srv.Handler())
	d.ingest, d.server = []string{d.base}, d.base
	return err
}

// sparseBackend serves a raw UDA pair — the paper-scale sparse world has no
// text for PrepareWorld to extract — through the shard engine directly.
type sparseBackend struct {
	g1            *graph.UDA
	sc            *similarity.Scorer
	exact, approx *shard.World
}

func (b *sparseBackend) check(users ...int) error {
	for _, u := range users {
		if u < 0 || u >= b.g1.NumNodes() {
			return fmt.Errorf("user %d out of range [0, %d)", u, b.g1.NumNodes())
		}
	}
	return nil
}

func (b *sparseBackend) QueryUser(u, k int) ([]core.Candidate, error) {
	if err := b.check(u); err != nil {
		return nil, err
	}
	return b.exact.QueryUser(u, k), nil
}

func (b *sparseBackend) QueryBatch(users []int, k int) ([][]core.Candidate, error) {
	if err := b.check(users...); err != nil {
		return nil, err
	}
	return b.exact.QueryBatch(users, k, 0), nil
}

func (b *sparseBackend) QueryUserApprox(u, k int) ([]core.Candidate, error) {
	if err := b.check(u); err != nil {
		return nil, err
	}
	return b.approx.QueryUserApprox(u, k, index.ApproxParams{}), nil
}

func (b *sparseBackend) QueryBatchApprox(users []int, k int) ([][]core.Candidate, error) {
	if err := b.check(users...); err != nil {
		return nil, err
	}
	return b.approx.QueryBatchApprox(users, k, 0, index.ApproxParams{}), nil
}

// Ingest is what PreparedWorld.Ingest does minus the stylometry this world
// has no text for: the new account joins the existing anonymized user its
// first post names (same attributes, one co-discussion edge), then the
// scorer caches are extended.
func (b *sparseBackend) Ingest(batch []features.UserPosts) ([]int, error) {
	for _, up := range batch {
		if len(up.Posts) == 0 {
			return nil, fmt.Errorf("user %q has no posts", up.User.Name)
		}
		if err := b.check(up.Posts[0].Thread); err != nil {
			return nil, err
		}
	}
	ids := make([]int, len(batch))
	for i, up := range batch {
		peer := up.Posts[0].Thread
		ids[i] = b.g1.AppendNode(b.g1.Attrs[peer], b.g1.PostVectors[peer])
		b.g1.AddEdge(ids[i], peer, 1)
	}
	b.sc.SyncAnon()
	return ids, nil
}

func (b *sparseBackend) Sizes() (int, int) { return b.g1.NumNodes(), b.exact.AuxUsers() }

func (b *sparseBackend) ShardSizes() []serve.ShardCount {
	out := make([]serve.ShardCount, b.exact.N())
	for i, sh := range b.exact.Shards() {
		out[i] = serve.ShardCount{Shard: i, AuxUsers: sh.NumUsers()}
	}
	return out
}
