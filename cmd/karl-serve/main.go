// Command karl-serve exposes a KARL engine over HTTP/JSON.
//
// Usage:
//
//	karl-serve -model engine.karl -addr :8080          # saved engine, read-only
//	karl-serve -points data.txt -gamma 2 -addr :8080   # build from vectors
//	karl-serve -mutable -gamma 2 -addr :8080           # start empty, accept writes
//	karl-serve -mutable -model engine.karl -addr :8080 # saved engine, accept writes
//
// -model reads any file Engine.WriteTo wrote; -mutable decides which routes
// exist, not which files load.
//
// Endpoints:
//
//	GET  /v1/info
//	GET  /v1/stats
//	POST /v1/aggregate   {"q":[...]}
//	POST /v1/threshold   {"q":[...],"tau":1.5}
//	POST /v1/approximate {"q":[...],"eps":0.1}        # relative error
//	POST /v1/approximate {"q":[...],"eps_norm":0.1}   # normalized error
//	POST /v1/batch       {"kind":"approximate","queries":[[...],...],"eps":0.1}
//	POST /v1/insert      {"p":[...],"w":2.0}          # -mutable only
//	POST /v1/insert      {"points":[[...],...],"weights":[...]}
//	DELETE /v1/point     {"id":7}                     # -mutable only
//	DELETE /v1/point     {"ids":[7,8,9]}
//
// Approximate queries pick one of two error models: "eps" bounds the
// relative error |v−F| ≤ eps·F, "eps_norm" bounds the normalized error
// |v−F| ≤ eps_norm·W (W = total weight). Only eps_norm traffic is
// eligible for the -sketch-eps coreset tier.
//
// Requests are served concurrently over a pool of engine clones sharing
// one dataset; SIGINT/SIGTERM drain in-flight requests before exiting.
//
// With -mutable the server also mounts the write routes: POST /v1/insert
// appends points (returning their IDs) and DELETE /v1/point removes them by
// ID while queries keep serving, background compaction maintains the
// segment manifest, and no request ever waits on an index rebuild. Start
// empty (just -mutable, with -gamma for the kernel), from a saved engine
// (-model), or from vectors bulk-loaded from -points. Streaming retention
// is configured at startup: -window expires points older than the given
// age (a sliding window, enforced lazily at seal/compaction), and
// -decay-halflife down-weights every point exponentially with age so
// recent data dominates without ever rebuilding. The -sketch-eps tier
// needs a dataset that stays put and is rejected.
//
// With -coordinator the process serves no data itself: it scatter-gathers
// over remote karl-serve shards (split a saved engine with karl-shard):
//
//	karl-serve -coordinator -shards http://s0:8080,http://s1:8080 -addr :9090
//
// The coordinator exposes the same /v1/* query surface plus per-shard
// latency/error/retry/hedge counters in GET /v1/stats, and degrades to
// explicit partial results ("partial": true with the covered-weight
// fraction) when shards are unreachable. As on a single node, -mutable
// decides which routes exist: with it the coordinator also routes POST
// /v1/insert and DELETE /v1/point to the owning shard — each shard must
// itself be a -mutable karl-serve — through a -partition manifest (hash
// slots over any shard count, or kd which must start from exactly one
// shard). Returned point ids are cluster-global. -manifest persists the
// epoch-versioned routing table: when the file already exists at startup the
// coordinator resumes from it — epoch, routing and split lineage carry over,
// the -shards clients re-attach to the persisted members by URL, and
// previously issued point ids keep resolving; a fresh epoch-1 cluster is
// founded only when the file is absent:
//
//	karl-serve -coordinator -mutable -partition hash \
//	    -shards http://s0:8080,http://s1:8080 -manifest cluster.manifest
//
// A |url after a -shards entry names a REPLICATION FOLLOWER of that shard —
// a karl-serve started with -replica-of pointing at the leader, which is
// therefore a -mutable karl-serve, whether or not the coordinator is:
//
//	karl-serve -mutable -replica-of http://s0:8080 -addr :8081   # follower
//	karl-serve -coordinator -mutable \
//	    -shards 'http://s0:8080|http://s0b:8081' -manifest cluster.manifest
//
// The follower mirrors its leader: every pull is the leader's engine stream
// minus the segments the follower already holds, so it starts, catches up
// and recovers from any interruption the same way, adopting the leader's
// kernel and policy; it refuses writes (409) until promoted. The
// coordinator hedges and fails over reads onto caught-up followers and
// promotes one into the member's place when a write finds its leader dead —
// the member keeps its id, so previously issued cluster-global point ids
// keep resolving across the failover. A |url that does not answer
// /v1/replicate/status as a caught-up follower (a second karl-serve -model
// over a copy of the file, say) is never a hedge target.
//
// With -spawn the writable coordinator grows by process: a shard split
// execs a fresh `karl-serve -mutable` child seeded with the moved half,
// discovers its address via -addr-file, and registers it in the
// manifest under its base URL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"karl"
	"karl/internal/cluster"
	"karl/internal/dataset"
	"karl/internal/replica"
	"karl/internal/server"
	"karl/internal/shard"
)

func main() {
	var (
		model    = flag.String("model", "", "saved engine file (from Engine.WriteTo)")
		points   = flag.String("points", "", "whitespace-separated vectors to index directly")
		gamma    = flag.Float64("gamma", 1, "Gaussian gamma when building from -points")
		addr     = flag.String("addr", ":8080", "listen address")
		poolSize = flag.Int("pool", 0, "max idle engine clones retained (0 = 2·GOMAXPROCS)")
		sketch   = flag.Float64("sketch-eps", 0, "enable the coreset tier: serve normalized-budget (eps_norm ≥ this bound) approximate queries from a sketch (0 = off)")
		mutable  = flag.Bool("mutable", false, "also serve POST /v1/insert and DELETE /v1/point (see -seal-size, -fanout)")
		sealSize = flag.Int("seal-size", 0, "memtable seal threshold for -mutable (0 = library default)")
		fanout   = flag.Int("fanout", 0, "compaction fanout for -mutable (0 = library default)")
		window   = flag.Duration("window", 0, "sliding-window TTL for -mutable: points older than this expire at seal/compaction (0 = keep forever)")
		halfLife = flag.Duration("decay-halflife", 0, "exponential weight-decay half-life for -mutable: a point's weight halves every interval (0 = no decay)")
		readTO   = flag.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
		writeTO  = flag.Duration("write-timeout", 30*time.Second, "HTTP write timeout")
		idleTO   = flag.Duration("idle-timeout", 2*time.Minute, "HTTP idle-connection timeout")
		headerTO = flag.Duration("read-header-timeout", 5*time.Second, "HTTP header read timeout (slowloris guard)")
		drainTO  = flag.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown drain timeout")

		coordinator = flag.Bool("coordinator", false, "serve as a scatter-gather coordinator over remote shards (-shards); add -mutable for routed writes")
		shardAddrs  = flag.String("shards", "", "comma-separated shard base URLs for -coordinator; append |url per shard for its -replica-of followers (hedged reads, failover)")
		shardTO     = flag.Duration("shard-timeout", 2*time.Second, "per-shard attempt timeout for -coordinator")
		partition   = flag.String("partition", "hash", "write-routing partitioner for -coordinator -mutable: hash or kd")
		manifest    = flag.String("manifest", "", "manifest persistence path for -coordinator -mutable (epoch-versioned; empty = in-memory only)")

		replicaOf = flag.String("replica-of", "", "serve as a replication follower of the given leader base URL (-mutable only): mirror its segments and memtable continuously, refuse writes until promoted")
		spawnKids = flag.Bool("spawn", false, "enable the process spawn backend for -coordinator -mutable: shard splits exec a fresh karl-serve -mutable child")
		addrFile  = flag.String("addr-file", "", "write the actual listen address (after binding, useful with -addr :0) to this file")
	)
	flag.Parse()
	if err := validateFlags(); err != nil {
		fmt.Fprintf(os.Stderr, "karl-serve: %v\n", err)
		os.Exit(2)
	}

	if *coordinator {
		serveCoordinator(*mutable, *shardAddrs, *addr, *partition, *manifest, *addrFile,
			flagWasSet("partition"), *spawnKids,
			*shardTO, *readTO, *writeTO, *idleTO, *headerTO, *drainTO)
		return
	}

	var opts []server.Option
	if *poolSize > 0 {
		opts = append(opts, server.WithPoolSize(*poolSize))
	}
	if *sketch > 0 {
		opts = append(opts, server.WithSketchTier(*sketch))
	}

	if !*mutable && *model == "" && *points == "" {
		fmt.Fprintln(os.Stderr, "karl-serve: need -model or -points (or -mutable)")
		flag.Usage()
		os.Exit(2)
	}
	eng, err := loadEngine(*model, *points, *gamma, *sealSize, *fanout, *window, *halfLife)
	if err != nil {
		log.Fatalf("karl-serve: %v", err)
	}
	var srv *server.Server
	var banner string
	switch {
	case *replicaOf != "":
		// Follower mode: the engine starts empty (validateFlags rejects
		// -model/-points) and mirrors the leader through the continuous
		// pull loop. Every pull adopts the leader's kernel and maintenance
		// config wholesale, so -gamma etc. need not match the leader.
		// Writes answer 409 until promotion.
		leader := strings.TrimRight(*replicaOf, "/")
		a := replica.NewApplier(eng, replica.NewHTTPSource(leader))
		srv, err = server.NewMutable(eng, append(opts, server.WithReplicaApplier(a))...)
		go func() {
			// Run exits nil on promotion; the background context never
			// ends, so any return with an error is fatal news.
			if err := a.Run(context.Background(), 0); err != nil {
				log.Printf("karl-serve: replication pull loop stopped: %v", err)
			}
		}()
		banner = fmt.Sprintf("serving replication follower of %s on %s", leader, *addr)
	case *mutable:
		srv, err = server.NewMutable(eng, opts...)
		banner = fmt.Sprintf("serving mutable engine: %d points (%d dims, %v kernel, %d segments) on %s",
			eng.Len(), eng.Dims(), eng.Kernel().Kind, len(eng.Segments()), *addr)
	default:
		srv, err = server.New(eng, opts...)
		banner = fmt.Sprintf("serving %d points (%d dims, %v kernel) on %s",
			eng.Len(), eng.Dims(), eng.Kernel().Kind, *addr)
	}
	if err != nil {
		log.Fatalf("karl-serve: %v", err)
	}
	run(srv, banner, *addr, *addrFile, *readTO, *writeTO, *idleTO, *headerTO, *drainTO)
}

// flagWasSet reports whether a flag appeared explicitly on the command
// line (as opposed to holding its default).
func flagWasSet(name string) bool {
	found := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			found = true
		}
	})
	return found
}

// validateFlags rejects contradictory invocations up front: flags that
// belong to a different serving mode fail immediately with an error
// naming the owner, instead of being silently ignored (or failing deep
// inside engine construction).
func validateFlags() error {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return validateFlagSet(set)
}

// validateFlagSet holds the flag-ownership table: given the set of flags
// present on the command line, it returns an error naming every flag
// that belongs to a different serving mode.
func validateFlagSet(set map[string]bool) error {

	var wrong []string
	reject := func(mode string, names ...string) {
		for _, name := range names {
			if set[name] {
				wrong = append(wrong, fmt.Sprintf("-%s only applies to %s", name, mode))
			}
		}
	}
	switch {
	case set["coordinator"]:
		// The coordinator serves no data itself; engine-shaping flags
		// belong on the shard processes (writable mode included — each
		// shard is its own -mutable karl-serve).
		reject("a shard process, not -coordinator",
			"model", "points", "gamma", "pool", "sketch-eps",
			"seal-size", "fanout", "window", "decay-halflife", "replica-of")
		if !set["mutable"] {
			reject("-coordinator -mutable", "partition", "manifest", "spawn")
		}
	default:
		reject("-coordinator", "shards", "shard-timeout", "partition", "manifest")
		reject("-coordinator -mutable", "spawn")
		if !set["mutable"] {
			reject("-mutable", "seal-size", "fanout", "window", "decay-halflife", "replica-of")
		}
		if set["mutable"] {
			reject("an immutable engine (-model/-points without -mutable)", "sketch-eps")
		}
		if set["replica-of"] {
			// A follower mirrors its leader; the first pull would replace
			// whatever it was seeded with.
			reject("a leader shard, not a -replica-of follower", "model", "points")
		}
	}
	if len(wrong) > 0 {
		return errors.New(strings.Join(wrong, "; "))
	}
	return nil
}

// run serves the handler until SIGINT/SIGTERM, then drains. When
// addrFile is non-empty the actual bound address is published there
// (atomic write+rename, so a polling parent never reads a partial
// file) — the discovery handshake for -addr :0 children started by the
// exec spawn backend.
func run(handler http.Handler, banner, addr, addrFile string, readTO, writeTO, idleTO, headerTO, drainTO time.Duration) {
	httpSrv := &http.Server{
		Handler:           handler,
		ReadTimeout:       readTO,
		WriteTimeout:      writeTO,
		IdleTimeout:       idleTO,
		ReadHeaderTimeout: headerTO,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("karl-serve: %v", err)
	}
	if addrFile != "" {
		tmp := addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatalf("karl-serve: writing -addr-file: %v", err)
		}
		if err := os.Rename(tmp, addrFile); err != nil {
			log.Fatalf("karl-serve: writing -addr-file: %v", err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("%s (listening on %s)", banner, ln.Addr())

	select {
	case err := <-errc:
		log.Fatalf("karl-serve: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("shutting down, draining for up to %v", drainTO)
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTO)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			log.Fatalf("karl-serve: shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("karl-serve: %v", err)
		}
	}
}

// serveCoordinator founds (or resumes) the cluster over the -shards list
// and serves its HTTP surface; mutable decides whether the write routes are
// mounted on it. With -spawn, shard splits exec fresh karl-serve -mutable
// child processes (spawnExec); without it a static -shards list cannot
// provide new processes, so splitting is disabled.
//
// When -manifest names an existing file, the coordinator RESUMES from
// it: the persisted epoch, routing and lineage carry over and the
// -shards clients re-attach to the manifest's members by URL (members
// without a reachable shard serve as unreachable, degrading answers to
// the explicit partial contract). Only when the file is absent is a
// fresh epoch-1 cluster founded — founding over an existing file would
// be refused as a stale-epoch write anyway.
func serveCoordinator(mutable bool, shardAddrs, addr, partition, manifestPath, addrFile string, partitionSet, spawnKids bool, shardTO, readTO, writeTO, idleTO, headerTO, drainTO time.Duration) {
	kind, err := shard.ParseKind(partition)
	if err != nil {
		log.Fatalf("karl-serve: -partition: %v", err)
	}
	shards, err := parseShards(shardAddrs)
	if err != nil {
		log.Fatalf("karl-serve: %v", err)
	}
	var spawn cluster.SpawnFunc
	if spawnKids {
		spawn = spawnExec
	}
	cfg := cluster.WritableConfig{
		Config:       cluster.Config{Timeout: shardTO},
		ManifestPath: manifestPath,
	}

	var co *cluster.Coordinator
	verb := "coordinating"
	if manifestPath != "" {
		man, err := cluster.LoadManifest(manifestPath)
		switch {
		case err == nil:
			if partitionSet && man.Kind != kind {
				log.Fatalf("karl-serve: -partition %s disagrees with the persisted manifest's %s routing; drop the flag to resume, or point -manifest elsewhere to found fresh", kind, man.Kind)
			}
			kind = man.Kind
			co, err = cluster.ResumeWritable(context.Background(), man, shards, spawn, cfg)
			if err != nil {
				log.Fatalf("karl-serve: resuming from %s: %v", manifestPath, err)
			}
			verb = "resuming"
		case errors.Is(err, os.ErrNotExist):
			// No manifest yet: found fresh below.
		default:
			log.Fatalf("karl-serve: loading manifest %s: %v", manifestPath, err)
		}
	}
	if co == nil {
		co, err = cluster.NewWritable(context.Background(), kind, shards, spawn, cfg)
		if err != nil {
			log.Fatalf("karl-serve: %v", err)
		}
	}
	srv, mode := cluster.NewHTTPServer(co), "read-only"
	if mutable {
		srv, mode = cluster.NewWritableHTTPServer(co), "writable"
	}
	banner := fmt.Sprintf("%s %s cluster: %d points (%d dims, %s kernel) across %d shards (%s partition, epoch %d) on %s",
		verb, mode, co.Points(), co.Dims(), co.KernelName(), co.NumShards(), kind, co.Epoch(), addr)
	run(srv, banner, addr, addrFile, readTO, writeTO, idleTO, headerTO, drainTO)
}

// parseShards parses "-shards url[|follower...],url[|follower...]".
func parseShards(s string) ([]cluster.WritableShard, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("-coordinator needs -shards url1,url2,...")
	}
	var shards []cluster.WritableShard
	for _, entry := range strings.Split(s, ",") {
		urls := strings.Split(strings.TrimSpace(entry), "|")
		if urls[0] == "" {
			return nil, fmt.Errorf("empty shard entry in -shards %q", s)
		}
		sh := cluster.WritableShard{Client: cluster.NewHTTPShard(strings.TrimRight(urls[0], "/"))}
		for _, rep := range urls[1:] {
			if rep = strings.TrimSpace(rep); rep != "" {
				sh.Followers = append(sh.Followers, cluster.NewHTTPShard(strings.TrimRight(rep, "/")))
			}
		}
		shards = append(shards, sh)
	}
	return shards, nil
}

// loadEngine assembles the served engine, the same way whichever routes
// will be mounted on it: a saved engine (-model, which carries its own
// kernel and policy), vectors bulk-loaded from -points, or nothing yet.
func loadEngine(model, points string, gamma float64, sealSize, fanout int, window, halfLife time.Duration) (*karl.Engine, error) {
	if model != "" {
		if points != "" {
			return nil, fmt.Errorf("-model and -points are mutually exclusive")
		}
		if window != 0 || halfLife != 0 {
			return nil, fmt.Errorf("-window and -decay-halflife are baked into a saved engine; they cannot be overridden with -model")
		}
		f, err := os.Open(model)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return karl.ReadEngine(f)
	}
	var opts []karl.Option
	if sealSize > 0 {
		opts = append(opts, karl.WithSealSize(sealSize))
	}
	if fanout > 0 {
		opts = append(opts, karl.WithCompactionFanout(fanout))
	}
	if window > 0 {
		opts = append(opts, karl.WithTTL(window))
	}
	if halfLife > 0 {
		opts = append(opts, karl.WithDecayHalfLife(halfLife))
	}
	if points == "" {
		return karl.NewDynamic(karl.Gaussian(gamma), opts...)
	}
	rows, err := dataset.ReadRowsFile(points)
	if err != nil {
		return nil, err
	}
	return karl.Build(rows, karl.Gaussian(gamma), opts...)
}
