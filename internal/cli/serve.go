package cli

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
	"karl/internal/replica"
	"karl/internal/server"
	"karl/internal/shard"
)

// defineServe is karl serve: one engine over HTTP/JSON, built from -points,
// loaded from -model (any file Engine.WriteTo wrote) or started empty with
// -mutable. -mutable decides which routes exist, not which files load: with
// it POST /v1/insert and DELETE /v1/point are mounted beside the query
// routes (GET /v1/info and /v1/stats; POST /v1/aggregate, /v1/threshold,
// /v1/approximate with "eps" or "eps_norm", /v1/batch), compaction runs in
// the background, and -window and -decay-halflife set the retention policy
// of an engine built here. An "eps_norm" query stops refining once its
// bounds certify eps_norm·W, W the total weight mass. Every request queries
// the one engine; SIGINT/SIGTERM drain in-flight requests before exiting.
//
// -replica-of makes the process a follower that mirrors its leader (adopting
// its kernel and policy) and refuses writes (409) until promoted.
//
// -coordinator serves no data itself: it scatter-gathers over the -shards
// processes (split a saved engine with karl shard) and degrades to explicit
// partial results when some are unreachable. With -mutable it also routes
// writes to the owning shard through a -partition manifest; -manifest
// persists it, and a coordinator whose -manifest file exists resumes from it.
// A |url after a -shards entry names a -replica-of follower of that shard,
// used for hedged reads and promoted when a write finds its leader dead.
// -spawn lets a split exec a fresh serve -mutable child for the moved half.
func defineServe(fs *flag.FlagSet, e *env) func() error {
	var (
		model    = fs.String("model", "", "saved engine file (from Engine.WriteTo)")
		points   = fs.String("points", "", "whitespace-separated vectors to index directly")
		gamma    = gammaFlag(fs, 1, "refused: -points and an empty -mutable engine need gamma > 0")
		addr     = fs.String("addr", ":8080", "listen address")
		mutable  = fs.Bool("mutable", false, "also serve POST /v1/insert and DELETE /v1/point (see -seal-size, -fanout)")
		sealSize = fs.Int("seal-size", 0, "memtable seal threshold for -mutable (0 = library default)")
		fanout   = fs.Int("fanout", 0, "compaction fanout for -mutable (0 = library default)")
		window   = fs.Duration("window", 0, "sliding-window TTL for -mutable: points older than this expire at seal/compaction (0 = keep forever)")
		halfLife = fs.Duration("decay-halflife", 0, "exponential weight-decay half-life for -mutable: a point's weight halves every interval (0 = no decay)")

		coordinator = fs.Bool("coordinator", false, "serve as a scatter-gather coordinator over remote shards (-shards); add -mutable for routed writes")
		shardAddrs  = fs.String("shards", "", "comma-separated shard base URLs for -coordinator; append |url per shard for its -replica-of followers (hedged reads, failover)")
		shardTO     = fs.Duration("shard-timeout", 2*time.Second, "per-shard attempt timeout for -coordinator")
		partition   = fs.String("partition", "hash", "write-routing partitioner for -coordinator -mutable: hash or kd")
		manifest    = fs.String("manifest", "", "manifest persistence path for -coordinator -mutable (epoch-versioned; empty = in-memory only)")

		replicaOf = fs.String("replica-of", "", "serve as a replication follower of the given leader base URL (-mutable only): mirror its segments and memtable continuously, refuse writes until promoted")
		spawnKids = fs.Bool("spawn", false, "enable the process spawn backend for -coordinator -mutable: shard splits exec a fresh serve -mutable child")
		addrFile  = fs.String("addr-file", "", "write the actual listen address (after binding, useful with -addr :0) to this file")
	)
	var to server.Timeouts
	fs.DurationVar(&to.Read, "read-timeout", 10*time.Second, "HTTP read timeout")
	fs.DurationVar(&to.Write, "write-timeout", 30*time.Second, "HTTP write timeout")
	fs.DurationVar(&to.Idle, "idle-timeout", 2*time.Minute, "HTTP idle-connection timeout")
	fs.DurationVar(&to.ReadHeader, "read-header-timeout", 5*time.Second, "HTTP header read timeout (slowloris guard)")
	fs.DurationVar(&to.Drain, "shutdown-timeout", 10*time.Second, "graceful-shutdown drain timeout")
	return func() error {
		set := ownership(fs).set
		if err := validateFlagSet(set); err != nil {
			return err
		}
		if *coordinator {
			var spawn cluster.SpawnFunc
			if *spawnKids {
				spawn = spawner(e.self).spawn
			}
			return serveCoordinator(*mutable, *shardAddrs, *addr, *partition, *manifest, *addrFile,
				set["partition"], spawn, *shardTO, to)
		}
		if !*mutable && *model == "" && *points == "" {
			return usagef("need -model or -points (or -mutable)")
		}

		eng, err := e.loadEngine(*model, *points, *gamma, *sealSize, *fanout, *window, *halfLife)
		if err != nil {
			return err
		}
		var srv *server.Server
		var banner string
		switch {
		case *replicaOf != "":
			// Follower mode: the engine starts empty (validateFlagSet
			// rejects -model/-points) and mirrors the leader through the
			// continuous pull loop. Every pull adopts the leader's kernel
			// and maintenance config wholesale, so -gamma etc. need not
			// match the leader. Writes answer 409 until promotion.
			leader := strings.TrimRight(*replicaOf, "/")
			a := replica.NewApplier(eng, replica.NewHTTPSource(leader))
			srv, err = server.NewMutable(eng, server.WithReplicaApplier(a))
			go func() {
				// Run exits nil on promotion; the background context never
				// ends, so any return with an error is fatal news.
				if err := a.Run(context.Background(), 0); err != nil {
					log.Printf("karl serve: replication pull loop stopped: %v", err)
				}
			}()
			banner = fmt.Sprintf("serving replication follower of %s on %s", leader, *addr)
		case *mutable:
			srv, err = server.NewMutable(eng)
			st := eng.Status()
			banner = fmt.Sprintf("serving mutable engine: %d points (%d dims, %v kernel, %d segments) on %s",
				st.Points, eng.Dims(), eng.Kernel().Kind, len(st.Segments), *addr)
		default:
			srv, err = server.New(eng)
			banner = fmt.Sprintf("serving %d points (%d dims, %v kernel) on %s",
				eng.Len(), eng.Dims(), eng.Kernel().Kind, *addr)
		}
		if err != nil {
			return err
		}
		return serveHTTP(srv, banner, *addr, *addrFile, to)
	}
}

// validateFlagSet holds serve's flag-ownership table: given the set of
// flags present on the command line, it returns a usage error naming every
// flag that belongs to a different serving mode.
func validateFlagSet(set map[string]bool) error {
	o := &owners{set: set}
	switch {
	case set["coordinator"]:
		// The coordinator serves no data itself; engine-shaping flags
		// belong on the shard processes (writable mode included — each
		// shard is its own -mutable serve process).
		o.only("a shard process, not -coordinator",
			"model", "points", "gamma",
			"seal-size", "fanout", "window", "decay-halflife", "replica-of")
		if !set["mutable"] {
			o.only("-coordinator -mutable", "partition", "manifest", "spawn")
		}
	default:
		o.only("-coordinator", "shards", "shard-timeout", "partition", "manifest")
		o.only("-coordinator -mutable", "spawn")
		if !set["mutable"] {
			o.only("-mutable", "seal-size", "fanout", "window", "decay-halflife", "replica-of")
		}
		if set["model"] {
			// A saved engine carries its own points and retention policy.
			o.only("an engine built here, not one loaded with -model", "points", "window", "decay-halflife")
		}
		if set["replica-of"] {
			// A follower mirrors its leader; the first pull would replace
			// whatever it was seeded with.
			o.only("a leader shard, not a -replica-of follower", "model", "points")
		}
	}
	return o.err()
}

// serveHTTP serves the handler until SIGINT/SIGTERM, then drains. When
// addrFile is non-empty the actual bound address is published there
// (atomic write+rename, so a polling parent never reads a partial file) —
// the discovery handshake for -addr :0 children started by the spawn
// backend.
func serveHTTP(handler http.Handler, banner, addr, addrFile string, to server.Timeouts) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if addrFile != "" {
		tmp := addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing -addr-file: %w", err)
		}
		if err := os.Rename(tmp, addrFile); err != nil {
			ln.Close()
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, drain := context.WithCancel(context.Background())
	defer drain()
	context.AfterFunc(sig, func() {
		stop() // a second signal kills
		log.Printf("shutting down, draining for up to %v", to.Drain)
		drain()
	})
	log.Printf("%s (listening on %s)", banner, ln.Addr())
	return server.Serve(ctx, ln, handler, to)
}

// serveCoordinator founds (or resumes) the cluster over the -shards list
// and serves its HTTP surface; mutable decides whether the write routes are
// mounted on it. Without a spawn backend a static -shards list cannot
// provide new processes, so splitting is disabled.
//
// When -manifest names an existing file, the coordinator RESUMES from
// it: the persisted epoch, routing and lineage carry over and the
// -shards clients re-attach to the manifest's members by URL (members
// without a reachable shard serve as unreachable, degrading answers to
// the explicit partial contract). Only when the file is absent is a
// fresh epoch-1 cluster founded — founding over an existing file would
// be refused as a stale-epoch write anyway.
func serveCoordinator(mutable bool, shardAddrs, addr, partition, manifestPath, addrFile string, partitionSet bool, spawn cluster.SpawnFunc, shardTO time.Duration, to server.Timeouts) error {
	kind, err := shard.ParseKind(partition)
	if err != nil {
		return usagef("-partition: %v", err)
	}
	shards, err := parseShards(shardAddrs)
	if err != nil {
		return err
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
				return fmt.Errorf("-partition %s disagrees with the persisted manifest's %s routing; drop the flag to resume, or point -manifest elsewhere to found fresh", kind, man.Kind)
			}
			kind = man.Kind
			co, err = cluster.ResumeWritable(context.Background(), man, shards, spawn, cfg)
			if err != nil {
				return fmt.Errorf("resuming from %s: %w", manifestPath, err)
			}
			verb = "resuming"
		case errors.Is(err, os.ErrNotExist):
			// No manifest yet: found fresh below.
		default:
			return fmt.Errorf("loading manifest %s: %w", manifestPath, err)
		}
	}
	if co == nil {
		co, err = cluster.NewWritable(context.Background(), kind, shards, spawn, cfg)
		if err != nil {
			return err
		}
	}
	srv, mode := cluster.NewHTTPServer(co), "read-only"
	if mutable {
		srv, mode = cluster.NewWritableHTTPServer(co), "writable"
	}
	st := co.Status(context.Background())
	banner := fmt.Sprintf("%s %s cluster: %d points (%d dims, %s kernel) across %d shards (%s partition, epoch %d) on %s",
		verb, mode, st.Points, st.Dims, st.Kernel, len(st.Members), kind, st.Epoch, addr)
	return serveHTTP(srv, banner, addr, addrFile, to)
}

// parseShards parses "-shards url[|follower...],url[|follower...]".
func parseShards(s string) ([]cluster.WritableShard, error) {
	if strings.TrimSpace(s) == "" {
		return nil, usagef("-coordinator needs -shards url1,url2,...")
	}
	var shards []cluster.WritableShard
	for _, entry := range strings.Split(s, ",") {
		urls := strings.Split(strings.TrimSpace(entry), "|")
		if urls[0] == "" {
			return nil, usagef("empty shard entry in -shards %q", s)
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
func (e *env) loadEngine(model, points string, gamma float64, sealSize, fanout int, window, halfLife time.Duration) (*karl.Engine, error) {
	if model != "" {
		return load(model, karl.ReadEngine)
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
	rows, err := e.readRows(points)
	if err != nil {
		return nil, err
	}
	return karl.Build(rows, karl.Gaussian(gamma), opts...)
}
