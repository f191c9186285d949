package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"karl"
	"karl/bench/oracle"
)

// target is what a runner drives: a front door and the servers behind it,
// by URL, and — for the writable shapes — the harness's own record of
// which points are live. A fleet of real processes and the in-process
// hosting of the traced pass both present one.
type target struct {
	front     string   // the URL clients talk to
	engines   []string // servers that hold an engine (the front door itself, or the leaders)
	followers []string // one per engine server on the cluster shape
	procs     []*proc  // empty when hosted in-process
	ctl       *conn    // set-up and polling traffic, never timed
	mirror
}

// mirror is the harness's own record of which points are live behind a
// writable front door: oldest first, with the ids the front door issued.
// Empty for the static shape.
type mirror struct {
	liveIDs []uint64
	livePts [][]float64
}

// deploy takes a workload from raw points in harness memory to every
// server ready: what setup_s times. Servers get no tuning flags.
func (e *env) deploy(w workload, in *inputs) (*target, error) {
	fl := &target{}
	fail := func(err error) (*target, error) {
		e.teardown(fl)
		return nil, err
	}
	add := func(role string, args ...string) (*proc, error) {
		p, err := e.start(role, args...)
		if p != nil {
			fl.procs = append(fl.procs, p)
		}
		return p, err
	}
	gamma := strconv.FormatFloat(in.set.Gamma, 'g', -1, 64)

	switch w.shape {
	case shapeStatic:
		var opts []karl.Option
		if in.set.Weights != nil {
			opts = append(opts, karl.WithWeights(in.set.Weights))
		}
		eng, err := karl.Build(in.set.Points, karl.Gaussian(in.set.Gamma), opts...)
		if err != nil {
			return fail(err)
		}
		model := filepath.Join(e.tmp, "model.karl")
		if err := writeModel(model, eng); err != nil {
			return fail(err)
		}
		p, err := add("server", "-model", model)
		// The server has the model in memory once it is ready. Removed now,
		// the file's dirty pages are dropped instead of written back, and
		// the next set-up does not wait on that write-back to truncate it.
		os.Remove(model)
		if err != nil {
			return fail(err)
		}
		fl.front, fl.engines = p.url, []string{p.url}
		fl.ctl = newConn(p.url)
		return fl, nil

	case shapeMutable:
		p, err := add("server", "-mutable", "-gamma", gamma)
		if err != nil {
			return fail(err)
		}
		fl.front, fl.engines = p.url, []string{p.url}

	case shapeCluster:
		var spec []string
		for i := 0; i < 2; i++ {
			l, err := add("leader", "-mutable", "-gamma", gamma)
			if err != nil {
				return fail(err)
			}
			f, err := add("follower", "-mutable", "-replica-of", l.url)
			if err != nil {
				return fail(err)
			}
			fl.engines = append(fl.engines, l.url)
			fl.followers = append(fl.followers, f.url)
			spec = append(spec, l.url+"|"+f.url)
		}
		// The coordinator only hedges reads onto followers it found live
		// when it last looked, so they must be live before it is founded.
		if err := fl.awaitFollowers(); err != nil {
			return fail(err)
		}
		co, err := add("coordinator", "-coordinator", "-mutable", "-partition", "hash", "-shards", strings.Join(spec, ","))
		if err != nil {
			return fail(err)
		}
		fl.front = co.url
	}

	fl.ctl = newConn(fl.front)
	if err := fl.seed(in, w.seedBatch); err != nil {
		return fail(err)
	}
	return fl, nil
}

// seed inserts the workload's points through the front door, seedBatch per
// request (0 = all in one), and waits for the followers to hold them.
func (t *target) seed(in *inputs, seedBatch int) error {
	if seedBatch <= 0 {
		seedBatch = len(in.set.Points)
	}
	for lo := 0; lo < len(in.set.Points); lo += seedBatch {
		hi := min(lo+seedBatch, len(in.set.Points))
		if err := t.insert(t.ctl, in.set.Points[lo:hi], 0); err != nil {
			return fmt.Errorf("seeding: %w", err)
		}
	}
	return t.awaitFollowers()
}

func writeModel(path string, eng *karl.Engine) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := eng.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// teardown stops a deployed workload's processes.
func (e *env) teardown(t *target) {
	if t.ctl != nil {
		t.ctl.close()
	}
	e.stop(t.procs)
	t.procs = nil
}

// insert adds points through the front door and records them as live.
func (m *mirror) insert(c *conn, pts [][]float64, rid int64) error {
	var r reply
	if err := c.call("POST", "/v1/insert", insertBody(pts, nil), &r, rid); err != nil {
		return err
	}
	if len(r.IDs) != len(pts) {
		return fmt.Errorf("insert of %d points returned %d ids", len(pts), len(r.IDs))
	}
	m.liveIDs = append(m.liveIDs, r.IDs...)
	m.livePts = append(m.livePts, pts...)
	return nil
}

// deleteOldest removes the k oldest live points through the front door.
func (m *mirror) deleteOldest(c *conn, k int, rid int64) error {
	if err := c.call("DELETE", "/v1/point", deleteBody(m.liveIDs[:k]), nil, rid); err != nil {
		return err
	}
	m.liveIDs, m.livePts = m.liveIDs[k:], m.livePts[k:]
	return nil
}

// liveSet is the oracle's view of what the servers should hold now.
func (m *mirror) liveSet(in *inputs) *oracle.Set {
	if m.livePts == nil {
		return in.set
	}
	return &oracle.Set{Dim: in.set.Dim, Gamma: in.set.Gamma, Points: m.livePts}
}

// replicaStatus is the part of GET /v1/replicate/status the harness reads.
type replicaStatus struct {
	State     string `json:"state"`
	NextSeq   uint64 `json:"next_seq"`
	DeletePos uint64 `json:"delete_pos"`
	LeaderSeq uint64 `json:"leader_seq"`
	LastError string `json:"last_error"`
}

func replStatus(url string) (replicaStatus, error) {
	var st replicaStatus
	c := newConn(url)
	defer c.close()
	err := c.call("GET", "/v1/replicate/status", nil, &st, 0)
	return st, err
}

// awaitFollowers blocks until every follower is live and holds exactly its
// leader's inserts and deletes.
func (t *target) awaitFollowers() error {
	deadline := time.Now().Add(60 * time.Second)
	for i, f := range t.followers {
		for {
			ls, err := replStatus(t.engines[i])
			if err != nil {
				return err
			}
			fs, err := replStatus(f)
			if err != nil {
				return err
			}
			if fs.State == "live" && fs.NextSeq == ls.NextSeq && fs.DeletePos == ls.DeletePos {
				break
			}
			if err := died(t.procs); err != nil {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower %s not caught up after 60s: %+v vs leader %+v", f, fs, ls)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}
