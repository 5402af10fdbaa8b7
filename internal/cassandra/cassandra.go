// Package cassandra implements a Cassandra-like cloud serving database on
// the simulated cluster: a Murmur-style token ring with virtual nodes,
// SimpleStrategy replica placement, coordinators that fan mutations out to
// every replica while acknowledging at the requested consistency level,
// digest reads with blocking read repair, probabilistic background read
// repair, hinted handoff, and per-node commit log + memtable + SSTable
// storage with last-write-wins timestamps.
//
// The design follows §2 of the paper: tunable consistency (ONE, QUORUM,
// ALL, set per request), a fixed replica order in which the first "main
// replica" is always contacted, and the built-in read repair that §4.1
// identifies as the cause of rising read latency at high replication
// factors.
package cassandra

import (
	"sort"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/consistency"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/trace"
)

// Config parameterizes the database.
type Config struct {
	// Replication is the keyspace replication factor, the paper's knob.
	Replication int
	// VNodes is the number of virtual-node tokens per host.
	VNodes int
	// TopologyAware selects NetworkTopologyStrategy-style placement:
	// replicas spread across zones (data centers) before doubling up in
	// any one. With a single zone it is identical to SimpleStrategy.
	TopologyAware bool
	// DCReplicas, when non-empty, is full NetworkTopologyStrategy
	// placement with an explicit replication factor per data center
	// (DCReplicas[z] replicas in zone z), overriding Replication and
	// TopologyAware. The effective total replication factor is the sum.
	DCReplicas []int
	// ReadCL and WriteCL are the default consistency levels; clients may
	// override per request.
	ReadCL, WriteCL kv.ConsistencyLevel
	// ReadRepairChance is the probability that a point read triggers a
	// background repair across all replicas (table read_repair_chance;
	// Cassandra 2.0 defaults to 0.1 and the paper notes the feature is on
	// by default).
	ReadRepairChance float64
	// HintedHandoff stores mutations for down replicas and replays them
	// on recovery.
	HintedHandoff bool
	// Engine configures each node's storage.
	Engine storage.Config
	// RequestOverhead is the fixed per-message overhead in bytes.
	RequestOverhead int
	// Timeout bounds how long a coordinator waits for replica responses.
	Timeout time.Duration
	// HintReplayInterval is how often stored hints are retried.
	HintReplayInterval time.Duration
	// HintWindow bounds how long a hint is kept before being dropped
	// (Cassandra's max_hint_window_in_ms, default 3 h).
	HintWindow time.Duration
	// MutationStageMeanDelay models the replica-side MutationStage: each
	// mutation apply waits an exponentially distributed extra delay with
	// mean MutationStageMeanDelay × Replication before executing (SEDA
	// stage hand-off and JVM thread-scheduling variance; the stage's
	// offered load scales with the replication factor because every
	// client write fans out to RF replicas). Zero, the default, disables
	// it: deliveries then process strictly FIFO per node, under which a
	// read issued after a write's ack can never overtake the main
	// replica's pending apply, so CL=ONE staleness is structurally
	// impossible. The latency experiments leave it off (sub-millisecond
	// jitter is second order for latency); the consistency audit turns it
	// on, because this per-message reordering is exactly what opens the
	// real-world CL=ONE visibility window it measures.
	MutationStageMeanDelay time.Duration
}

// DefaultConfig returns a Cassandra configuration matching the paper's
// recommended setup at replication factor 3 and consistency ONE.
func DefaultConfig() Config {
	ecfg := storage.DefaultConfig()
	// commitlog_sync: periodic (the Cassandra default): writes are acked
	// after the memtable apply; the commit log reaches the device in
	// background batches.
	ecfg.SyncWAL = false
	return Config{
		Replication:        3,
		VNodes:             16,
		ReadCL:             kv.One,
		WriteCL:            kv.One,
		ReadRepairChance:   0.1,
		HintedHandoff:      true,
		Engine:             ecfg,
		RequestOverhead:    64,
		Timeout:            5 * time.Second,
		HintReplayInterval: 10 * time.Second,
		HintWindow:         3 * time.Hour,
	}
}

// Replica is one Cassandra host: a cluster node plus its local storage.
type Replica struct {
	Node   *cluster.Node
	engine *storage.Engine
	hints  []hint
}

// Engine exposes the replica's storage engine for inspection.
func (r *Replica) Engine() *storage.Engine { return r.engine }

// hint is a mutation stored on behalf of a down replica.
type hint struct {
	target *Replica
	key    kv.Key
	rec    kv.Record
	del    bool
	ver    kv.Version
	stored sim.Time
}

// DB is one Cassandra deployment.
type DB struct {
	k    *sim.Kernel
	cfg  Config
	cl   *cluster.Cluster
	reps []*Replica
	ring ring

	nextVersion  kv.Version
	rrSeq        uint64 // deterministic read-repair dice
	hintProcLive bool
	oracle       *consistency.Oracle
	tracer       *trace.Tracer

	// Metrics.
	Reads, Writes, ScansDone       int64
	BlockingRepairs, AsyncRepairs  int64
	RepairWrites, HintsStored      int64
	HintsReplayed, DigestMismatch  int64
	HintsExpired                   int64
	CoordinatorTimeouts, Unavails  int64
	StaleReads, ConsistentChecksOK int64
	// InterDCForwards counts mutations forwarded across a WAN link — one
	// per (write, remote DC with a live replica), never one per remote
	// replica, which is the bandwidth contract of the forwarding path.
	InterDCForwards int64
}

// New builds a database over the given server nodes.
func New(k *sim.Kernel, cfg Config, nodes []*cluster.Node) *DB {
	if len(cfg.DCReplicas) > 0 {
		// Clamp each DC's target to its actual host count and derive the
		// effective total replication factor.
		hosts := make([]int, len(cfg.DCReplicas))
		for _, n := range nodes {
			if n.Zone < len(hosts) {
				hosts[n.Zone]++
			}
		}
		perDC := append([]int(nil), cfg.DCReplicas...)
		total := 0
		for z := range perDC {
			if perDC[z] < 0 {
				perDC[z] = 0
			}
			if perDC[z] > hosts[z] {
				perDC[z] = hosts[z]
			}
			total += perDC[z]
		}
		cfg.DCReplicas = perDC
		cfg.Replication = total
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(nodes) {
		cfg.Replication = len(nodes)
	}
	if cfg.VNodes < 1 {
		cfg.VNodes = 1
	}
	db := &DB{k: k, cfg: cfg}
	if len(nodes) > 0 {
		db.cl = nodes[0].Cluster()
	}
	for i, n := range nodes {
		rep := &Replica{Node: n}
		rep.engine = storage.NewEngine(k, cfg.Engine,
			storage.LocalIO{Disk: n.Disk},
			storage.DiskLog{Disk: n.Disk},
			k.Seed()^int64(i+101))
		db.reps = append(db.reps, rep)
	}
	rng := k.Rand()
	db.ring = buildRing(db.reps, cfg.VNodes, rng.Uint64)
	return db
}

// SetOracle attaches a consistency oracle observing every write lifecycle
// event and read observation. Pass nil (the default) to run unobserved:
// every hook call site is gated on a nil check, so the paper's performance
// experiments pay nothing for the instrumentation.
func (db *DB) SetOracle(o *consistency.Oracle) { db.oracle = o }

// Oracle returns the attached consistency oracle, if any.
func (db *DB) Oracle() *consistency.Oracle { return db.oracle }

// SetTracer attaches a request tracer recording per-phase spans along the
// read, write, repair, and hint paths. Pass nil (the default) to run
// untraced: like the oracle, every call site is nil-gated.
func (db *DB) SetTracer(t *trace.Tracer) {
	db.tracer = t
	for _, rep := range db.reps {
		node := rep.Node
		if t == nil {
			rep.engine.OnWALSync = nil
			continue
		}
		rep.engine.OnWALSync = func(p *sim.Proc, start sim.Time) {
			t.Phase(p, trace.PhaseWAL, node.ID, start)
		}
	}
}

// Tracer returns the attached tracer, if any.
func (db *DB) Tracer() *trace.Tracer { return db.tracer }

// Replicas returns the database's hosts.
func (db *DB) Replicas() []*Replica { return db.reps }

// ReplicasFor returns the replica set for key in ring order (main replica
// first).
func (db *DB) ReplicasFor(key kv.Key) []*Replica {
	if len(db.cfg.DCReplicas) > 0 {
		return db.ring.replicasForDCs(key, db.cfg.DCReplicas)
	}
	if db.cfg.TopologyAware {
		return db.ring.replicasForTopology(key, db.cfg.Replication)
	}
	return db.ring.replicasFor(key, db.cfg.Replication)
}

// localPlan restricts a replica list to the coordinator's zone for
// LOCAL_QUORUM: it returns the live local replicas and the majority count
// among them.
func localPlan(replicas []*Replica, zone int) (local []*Replica, need int) {
	for _, r := range replicas {
		if r.Node.Zone == zone && !r.Node.Down() {
			local = append(local, r)
		}
	}
	return local, len(local)/2 + 1
}

// execCoord charges coordinator CPU for one request. With a tracer
// attached it splits the time into coordinator queueing (stop-the-world
// pause + CPU-slot wait) and coordinator service phases.
func (db *DB) execCoord(p *sim.Proc, n *cluster.Node, cost time.Duration) {
	if db.tracer == nil {
		n.Exec(p, cost)
		return
	}
	t0 := p.Now()
	wait := n.ExecTimed(p, cost)
	if wait > 0 {
		db.tracer.Interval(p, trace.PhaseCoordQueue, n.ID, t0, t0.Add(wait))
	}
	db.tracer.Phase(p, trace.PhaseCoord, n.ID, t0.Add(wait))
}

// version issues the next write timestamp.
func (db *DB) version() kv.Version {
	db.nextVersion++
	return kv.Version(db.k.Now()) + db.nextVersion
}

// rollRepair decides deterministically whether a read triggers background
// read repair, approximating an independent coin with P = ReadRepairChance.
func (db *DB) rollRepair() bool {
	if db.cfg.ReadRepairChance <= 0 {
		return false
	}
	db.rrSeq++
	period := uint64(1.0 / db.cfg.ReadRepairChance)
	if period == 0 {
		period = 1
	}
	return db.rrSeq%period == 0
}

// mutationSize models the wire size of a mutation.
func (db *DB) mutationSize(key kv.Key, rec kv.Record) int {
	return rec.Bytes() + len(key) + db.cfg.RequestOverhead
}

// applyLocal performs the replica-side work of a mutation: CPU (internal
// verb, cheaper than a client-facing request), commit log append, memtable
// apply. src tells the oracle how the version reached this replica (write
// fan-out, read repair, or hint replay).
func (rep *Replica) applyLocal(p *sim.Proc, db *DB, key kv.Key, rec kv.Record, del bool, ver kv.Version, src consistency.ApplySource) {
	if d := db.cfg.MutationStageMeanDelay; d > 0 {
		mean := float64(d) * float64(db.cfg.Replication)
		p.Sleep(time.Duration(p.Rand().ExpFloat64() * mean))
	}
	cost := db.cl.Config.InternalOpCost
	if cost <= 0 {
		cost = db.cl.Config.CPUOpCost
	}
	var t0 sim.Time
	if db.tracer != nil {
		t0 = p.Now()
	}
	rep.Node.Exec(p, cost)
	if del {
		rep.engine.ApplyDelete(p, key, ver)
	} else {
		rep.engine.Apply(p, key, rec, ver)
	}
	if db.tracer != nil {
		db.tracer.Phase(p, trace.PhaseStorage, rep.Node.ID, t0)
	}
	if db.oracle != nil {
		db.oracle.ReplicaApply(key, ver, rep.Node.ID, src, p.Now())
	}
}

// write is the coordinator write path, executed by the client's process at
// the coordinator node. It sends the mutation to every replica, stores
// hints for down ones, and returns once cl.Required replicas acked.
func (db *DB) write(p *sim.Proc, coord *Replica, key kv.Key, rec kv.Record, del bool, cl kv.ConsistencyLevel) error {
	replicas := db.ReplicasFor(key)
	if db.zones() > 1 {
		return db.writeMultiDC(p, coord, key, rec, del, cl, replicas)
	}
	need := cl.Required(len(replicas))
	// counts reports whether a replica's ack advances the quorum; for
	// LOCAL_QUORUM only acks from the coordinator's zone count, though
	// the mutation is still sent everywhere.
	counts := func(*Replica) bool { return true }
	countable := 0
	for _, r := range replicas {
		if !r.Node.Down() {
			countable++
		}
	}
	if cl == kv.LocalQuorum {
		local, localNeed := localPlan(replicas, coord.Node.Zone)
		need = localNeed
		countable = len(local)
		inLocal := make(map[*Replica]bool, len(local))
		for _, r := range local {
			inLocal[r] = true
		}
		counts = func(r *Replica) bool { return inLocal[r] }
	}
	if countable < need {
		db.Unavails++
		return kv.ErrUnavailable
	}
	ver := db.version()
	if db.oracle != nil {
		db.oracle.WriteBegin(key, ver, len(replicas), db.k.Now())
	}
	size := db.mutationSize(key, rec)
	q := sim.NewQuorum(db.k, need, countable)
	for _, rep := range replicas {
		rep := rep
		if rep.Node.Down() {
			if db.cfg.HintedHandoff {
				db.noteHint(coord, hint{target: rep, key: key, rec: rec, del: del, ver: ver, stored: db.k.Now()})
			}
			continue
		}
		if rep == coord {
			// Local apply still runs concurrently so a slow local
			// commit-log append does not serialize the fan-out.
			db.k.Go("c*-local-write", func(q2 *sim.Proc) {
				rep.applyLocal(q2, db, key, rec, del, ver, consistency.ApplyWrite)
				if counts(rep) {
					q.Succeed()
				}
			})
			continue
		}
		db.k.Go("c*-repl-write", func(q2 *sim.Proc) {
			var t0 sim.Time
			if db.tracer != nil {
				t0 = q2.Now()
			}
			if !coord.Node.SendTo(q2, rep.Node, size) {
				if counts(rep) {
					q.Fail()
				}
				return
			}
			if db.tracer != nil {
				db.tracer.Phase(q2, trace.PhaseFanout, rep.Node.ID, t0)
			}
			rep.applyLocal(q2, db, key, rec, del, ver, consistency.ApplyWrite)
			var t1 sim.Time
			if db.tracer != nil {
				t1 = q2.Now()
			}
			if !rep.Node.SendTo(q2, coord.Node, db.cfg.RequestOverhead) {
				if counts(rep) {
					q.Fail()
				}
				return
			}
			if db.tracer != nil {
				db.tracer.Phase(q2, trace.PhaseFanout, coord.Node.ID, t1)
			}
			if counts(rep) {
				q.Succeed()
			}
		})
	}
	ok, decided := q.WaitTimeout(p, db.cfg.Timeout)
	if !decided {
		db.CoordinatorTimeouts++
		return kv.ErrTimeout
	}
	if !ok {
		db.Unavails++
		return kv.ErrUnavailable
	}
	if db.oracle != nil {
		db.oracle.WriteAck(key, ver, db.k.Now())
	}
	return nil
}

// readResponse carries one replica's answer to a read.
type readResponse struct {
	rep  *Replica
	row  *storage.Row // full data for the data read, nil for pure digests
	ver  kv.Version   // row version (the digest)
	ok   bool
	data bool
}

// fetchRow reads the full row from rep on behalf of a spawned process,
// returning the response through f.
func (db *DB) fetchRow(coord, rep *Replica, key kv.Key, digestOnly bool, f *sim.Future[readResponse], repair bool) {
	db.k.Go("c*-read", func(q *sim.Proc) {
		// A background-repair refetch bills its whole leg — request,
		// replica service, response — as one read-repair span; the leg's
		// fanout and storage sub-phases are muted so they are not
		// double-counted. Per-leg billing is what makes the repair bill
		// grow with the replication factor: the legs run concurrently, so
		// a single wall-clock span over all of them would only measure
		// the slowest.
		if repair {
			if tr := db.tracer; tr != nil {
				t0 := q.Now()
				prev := tr.Mute(q)
				defer func() {
					tr.Unmute(q, prev)
					tr.Interval(q, trace.PhaseReadRepair, rep.Node.ID, t0, q.Now())
				}()
			}
		}
		resp := readResponse{rep: rep, data: !digestOnly}
		reqSize := len(key) + db.cfg.RequestOverhead
		if rep != coord {
			var t0 sim.Time
			if db.tracer != nil {
				t0 = q.Now()
			}
			if !coord.Node.SendTo(q, rep.Node, reqSize) {
				f.Set(resp)
				return
			}
			if db.tracer != nil {
				db.tracer.Phase(q, legPhase(coord.Node, rep.Node), rep.Node.ID, t0)
			}
		}
		var s0 sim.Time
		if db.tracer != nil {
			s0 = q.Now()
		}
		rep.Node.Exec(q, db.cl.Config.CPUOpCost)
		row := rep.engine.Get(q, key)
		if db.tracer != nil {
			db.tracer.Phase(q, trace.PhaseStorage, rep.Node.ID, s0)
		}
		respSize := db.cfg.RequestOverhead
		if !digestOnly && row != nil {
			respSize += row.Bytes()
		}
		if rep != coord {
			var t1 sim.Time
			if db.tracer != nil {
				t1 = q.Now()
			}
			if !rep.Node.SendTo(q, coord.Node, respSize) {
				f.Set(resp)
				return
			}
			if db.tracer != nil {
				db.tracer.Phase(q, legPhase(rep.Node, coord.Node), coord.Node.ID, t1)
			}
		}
		resp.ok = true
		if row != nil {
			resp.ver = row.Version()
			if !digestOnly {
				resp.row = row
			}
		}
		f.Set(resp)
	})
}

// read is the coordinator read path: a full data read from the main
// replica, digest reads from the next cl.Required-1 replicas, blocking
// read repair on digest mismatch, and probabilistic background repair
// across all replicas.
func (db *DB) read(p *sim.Proc, coord *Replica, key kv.Key, cl kv.ConsistencyLevel) (*storage.Row, error) {
	replicas := db.ReplicasFor(key)
	// Proximity-sort the live replicas (dynamic-snitch style): the
	// coordinator's zone first, ring order within a zone. On the paper's
	// single rack this is exactly ring order, so the "main replica" of
	// §2 is unchanged there.
	var alive []*Replica
	for _, r := range replicas {
		if !r.Node.Down() && r.Node.Zone == coord.Node.Zone {
			alive = append(alive, r)
		}
	}
	for _, r := range replicas {
		if !r.Node.Down() && r.Node.Zone != coord.Node.Zone {
			alive = append(alive, r)
		}
	}
	need := cl.Required(len(replicas))
	pool := alive
	switch {
	case cl == kv.LocalQuorum && db.zones() > 1:
		// LOCAL_QUORUM reads contact only the coordinator's DC, blocking
		// for a majority of its replication factor; a coordinator whose DC
		// holds no replicas degrades to the plain-quorum pool.
		if local, localNeed := dcLocalPlan(replicas, coord.Node.Zone); localNeed > 0 {
			pool = local
			need = localNeed
		}
	case cl == kv.LocalQuorum:
		// LOCAL_QUORUM reads contact only the coordinator's zone.
		local, localNeed := localPlan(replicas, coord.Node.Zone)
		if len(local) > 0 {
			pool = local
			need = localNeed
		}
	case cl == kv.EachQuorum && db.zones() > 1:
		// EACH_QUORUM reads block on a majority in every DC.
		eq, ok := db.eachQuorumRead(replicas, coord.Node.Zone)
		if !ok {
			db.Unavails++
			return nil, kv.ErrUnavailable
		}
		pool = eq
		need = len(eq)
	}
	if len(pool) < need {
		db.Unavails++
		return nil, kv.ErrUnavailable
	}
	contacted := pool[:need]
	futs := make([]*sim.Future[readResponse], len(contacted))
	for i, rep := range contacted {
		futs[i] = sim.NewFuture[readResponse](db.k)
		db.fetchRow(coord, rep, key, i != 0, futs[i], false)
	}
	deadline := db.cfg.Timeout
	start := p.Now()
	resps := make([]readResponse, 0, len(futs))
	for _, f := range futs {
		remaining := deadline - p.Now().Sub(start)
		r, ok := f.AwaitTimeout(p, remaining)
		if !ok {
			db.CoordinatorTimeouts++
			return nil, kv.ErrTimeout
		}
		if !r.ok {
			db.Unavails++
			return nil, kv.ErrUnavailable
		}
		resps = append(resps, r)
	}

	dataRow := resps[0].row
	dataVer := resps[0].ver

	// Digest comparison → blocking read repair among contacted replicas.
	mismatch := false
	for _, r := range resps[1:] {
		if r.ver != dataVer {
			mismatch = true
			break
		}
	}
	if mismatch {
		db.DigestMismatch++
		db.BlockingRepairs++
		// The repair is traced as one composite span: its internal
		// refetches and repair writes are muted so they are not
		// double-billed as fanout/storage work.
		var t0 sim.Time
		var prev any
		if db.tracer != nil {
			db.tracer.Mark(p, trace.PhaseDigest, coord.Node.ID)
			t0 = p.Now()
			prev = db.tracer.Mute(p)
		}
		dataRow = db.blockingRepair(p, coord, key, contacted, dataRow)
		if db.tracer != nil {
			db.tracer.Unmute(p, prev)
			db.tracer.Interval(p, trace.PhaseReadRepair, coord.Node.ID, t0, p.Now())
		}
	}

	// Background read repair across the full replica set. The replicas
	// already contacted are not re-read: their responses feed the
	// reconciliation directly (Cassandra folds the CL responses into the
	// global repair's response set).
	if len(alive) > len(contacted) && db.rollRepair() {
		db.AsyncRepairs++
		inContacted := make(map[*Replica]bool, len(contacted))
		for _, r := range contacted {
			inContacted[r] = true
		}
		rest := make([]*Replica, 0, len(alive)-len(contacted))
		for _, r := range alive {
			if !inContacted[r] {
				rest = append(rest, r)
			}
		}
		known := make([]readResponse, len(resps))
		copy(known, resps)
		// The background repair process inherits this read's trace
		// context, so its work is billed to the read class — the F4
		// mechanism made measurable. Each refetch and repair-write leg
		// records its own read-repair span (the legs are concurrent, so
		// per-leg billing — not one wall-clock span across them — is
		// what scales the recorded bill with RF−1).
		db.k.Go("c*-bg-repair", func(q *sim.Proc) {
			db.repairRest(q, coord, key, rest, known)
		})
	}
	return dataRow, nil
}

// reconcile folds the successful responses' rows into merged in ascending
// replica node-id order. Row merging is last-write-wins with the incumbent
// cell kept on a version tie, so a fixed fold order pins tie resolution to
// the lowest node id regardless of contact order, arrival order, or which
// replica happened to serve the data read. Write timestamps are unique
// today (one coordinator counter), which makes this behavior-neutral; it
// exists so reconciliation can never become order-dependent if versioning
// ever gains ties, and so oracle version-lag counts stay deterministic.
func reconcile(merged *storage.Row, resps []readResponse) {
	order := make([]int, 0, len(resps))
	for i := range resps {
		if resps[i].ok {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		return resps[order[a]].rep.Node.ID < resps[order[b]].rep.Node.ID
	})
	for _, i := range order {
		merged.MergeFrom(resps[i].row)
	}
}

// blockingRepair fetches full rows from every contacted replica, merges
// them, writes the reconciled row back to stale replicas, and returns the
// merged row. The caller waits: this is Cassandra's foreground repair that
// delays the read.
func (db *DB) blockingRepair(p *sim.Proc, coord *Replica, key kv.Key, reps []*Replica, have *storage.Row) *storage.Row {
	futs := make([]*sim.Future[readResponse], len(reps))
	for i, rep := range reps {
		futs[i] = sim.NewFuture[readResponse](db.k)
		db.fetchRow(coord, rep, key, false, futs[i], false)
	}
	merged := storage.NewRow()
	resps := make([]readResponse, 0, len(futs))
	for _, f := range futs {
		if r := f.Await(p); r.ok {
			resps = append(resps, r)
		}
	}
	reconcile(merged, resps)
	// The original data read from the main replica is folded last: it can
	// only matter when the main replica's refetch was lost in flight.
	if have != nil {
		merged.MergeFrom(have)
	}
	db.writeRepairs(p, coord, key, merged, resps, true)
	if !merged.Live() && merged.Version() == 0 {
		return nil
	}
	return merged
}

// repairRest reconciles the replicas of key that the read path did not
// contact, folding in the already-known responses (the caller is a
// dedicated background repair process).
//
// A subtlety: the contacted responses carried full data only for the main
// replica; pure digests know the version but not the cells. Version
// comparison against the merged row is still exact, so stale detection and
// the repair write are correct; a digest replica whose version already
// matches is skipped without a refetch, exactly like the real resolver.
func (db *DB) repairRest(p *sim.Proc, coord *Replica, key kv.Key, rest []*Replica, known []readResponse) {
	futs := make([]*sim.Future[readResponse], len(rest))
	for i, rep := range rest {
		futs[i] = sim.NewFuture[readResponse](db.k)
		db.fetchRow(coord, rep, key, false, futs[i], true)
	}
	merged := storage.NewRow()
	resps := make([]readResponse, 0, len(futs)+len(known))
	for _, r := range known {
		if r.ok {
			resps = append(resps, r)
		}
	}
	for _, f := range futs {
		if r := f.Await(p); r.ok {
			resps = append(resps, r)
		}
	}
	reconcile(merged, resps)
	db.writeRepairs(p, coord, key, merged, resps, false)
}

// writeRepairs sends the reconciled row to every responder whose version
// lags. When wait is true the caller blocks until the repairs finish.
func (db *DB) writeRepairs(p *sim.Proc, coord *Replica, key kv.Key, merged *storage.Row, resps []readResponse, wait bool) {
	target := merged.Version()
	if target == 0 {
		return
	}
	rec := merged.Record()
	var stale []*Replica
	for _, r := range resps {
		if r.ver < target {
			stale = append(stale, r.rep)
		}
	}
	if len(stale) == 0 {
		return
	}
	q := sim.NewQuorum(db.k, len(stale), len(stale))
	for _, rep := range stale {
		rep := rep
		db.RepairWrites++
		db.k.Go("c*-repair-write", func(q2 *sim.Proc) {
			defer q.Succeed()
			// Bill the repair write as a read-repair leg. Under a
			// blocking repair the caller already muted the context and
			// holds the composite span, so the Interval below is
			// dropped there; only background repair records per leg.
			if tr := db.tracer; tr != nil {
				t0 := q2.Now()
				prev := tr.Mute(q2)
				defer func() {
					tr.Unmute(q2, prev)
					tr.Interval(q2, trace.PhaseReadRepair, rep.Node.ID, t0, q2.Now())
				}()
			}
			size := db.mutationSize(key, rec)
			if rep != coord {
				if !coord.Node.SendTo(q2, rep.Node, size) {
					return
				}
			}
			if rec == nil {
				rep.applyLocal(q2, db, key, nil, true, merged.Tomb, consistency.ApplyRepair)
			} else {
				rep.applyLocal(q2, db, key, rec, false, target, consistency.ApplyRepair)
			}
			if rep != coord {
				rep.Node.SendTo(q2, coord.Node, db.cfg.RequestOverhead)
			}
		})
	}
	if wait {
		q.Wait(p)
	}
}

// scanPart is one replica's contribution to a range scan.
type scanPart struct {
	rows []storage.ScanRow
	ok   bool
}

// scan is the coordinator range-scan path. With a hash partitioner,
// consecutive keys scatter across the cluster, so the coordinator asks
// every live host for its local rows ≥ start and merges — the cost shape
// of get_range_slices over token ranges. Scans do not trigger read repair.
func (db *DB) scan(p *sim.Proc, coord *Replica, start kv.Key, limit int) []storage.ScanRow {
	alive := 0
	for _, rep := range db.reps {
		if !rep.Node.Down() {
			alive++
		}
	}
	if alive == 0 {
		return nil
	}
	// Each host holds roughly limit·RF/alive of the next limit global
	// keys; fetch that share plus slack. (An exact range scan would need
	// per-host iteration rounds; the slack makes short ranges complete
	// in one round at realistic cost.)
	perHost := limit*db.cfg.Replication/alive + 4
	if perHost > limit {
		perHost = limit
	}
	futs := make([]*sim.Future[scanPart], 0, len(db.reps))
	for _, rep := range db.reps {
		if rep.Node.Down() {
			continue
		}
		rep := rep
		f := sim.NewFuture[scanPart](db.k)
		futs = append(futs, f)
		db.k.Go("c*-scan", func(q *sim.Proc) {
			part := scanPart{}
			reqSize := len(start) + db.cfg.RequestOverhead
			if rep != coord {
				var t0 sim.Time
				if db.tracer != nil {
					t0 = q.Now()
				}
				if !coord.Node.SendTo(q, rep.Node, reqSize) {
					f.Set(part)
					return
				}
				if db.tracer != nil {
					db.tracer.Phase(q, trace.PhaseFanout, rep.Node.ID, t0)
				}
			}
			var s0 sim.Time
			if db.tracer != nil {
				s0 = q.Now()
			}
			rep.Node.Exec(q, db.cl.Config.CPUOpCost)
			rows := rep.engine.Scan(q, start, perHost)
			if n := len(rows); n > 0 && db.cl.Config.ScanRowCost > 0 {
				rep.Node.Exec(q, time.Duration(n)*db.cl.Config.ScanRowCost)
			}
			if db.tracer != nil {
				db.tracer.Phase(q, trace.PhaseStorage, rep.Node.ID, s0)
			}
			respSize := db.cfg.RequestOverhead
			for _, r := range rows {
				respSize += r.Row.Bytes()
			}
			if rep != coord {
				var t1 sim.Time
				if db.tracer != nil {
					t1 = q.Now()
				}
				if !rep.Node.SendTo(q, coord.Node, respSize) {
					f.Set(part)
					return
				}
				if db.tracer != nil {
					db.tracer.Phase(q, trace.PhaseFanout, coord.Node.ID, t1)
				}
			}
			part.rows = rows
			part.ok = true
			f.Set(part)
		})
	}
	// Await the parts in launch order; MergeScans folds replicated rows in
	// that order, the first part's row as the base.
	parts := make([][]storage.ScanRow, 0, len(futs))
	for _, f := range futs {
		if part := f.Await(p); part.ok {
			parts = append(parts, part.rows)
		}
	}
	return storage.MergeScans(parts, limit)
}

// noteHint records a hint and ensures the replay process is running. The
// process exits when all hints have drained, so simulations with no failed
// nodes terminate cleanly.
func (db *DB) noteHint(coord *Replica, h hint) {
	coord.hints = append(coord.hints, h)
	db.HintsStored++
	if !db.hintProcLive {
		db.hintProcLive = true
		db.k.Go("hint-replayer", db.hintReplayLoop)
	}
}

// hintReplayLoop periodically replays hints whose targets have recovered,
// exiting once none remain.
func (db *DB) hintReplayLoop(p *sim.Proc) {
	defer func() { db.hintProcLive = false }()
	// The replayer is spawned from whichever write first stored a hint;
	// detach so its long-lived work bills to the background class, not to
	// that op. Each replayed hint is one composite hint-replay span with
	// its internal apply muted.
	if db.tracer != nil {
		db.tracer.Detach(p)
	}
	for db.PendingHints() > 0 {
		p.Sleep(db.cfg.HintReplayInterval)
		for _, rep := range db.reps {
			if len(rep.hints) == 0 || rep.Node.Down() {
				continue
			}
			var keep []hint
			for _, h := range rep.hints {
				if p.Now().Sub(h.stored) > db.cfg.HintWindow {
					db.HintsExpired++
					continue
				}
				if h.target.Node.Down() {
					keep = append(keep, h)
					continue
				}
				size := db.mutationSize(h.key, h.rec)
				var t0 sim.Time
				var prev any
				if db.tracer != nil {
					t0 = p.Now()
					prev = db.tracer.Mute(p)
				}
				if !rep.Node.SendTo(p, h.target.Node, size) {
					if db.tracer != nil {
						db.tracer.Unmute(p, prev)
					}
					keep = append(keep, h)
					continue
				}
				h.target.applyLocal(p, db, h.key, h.rec, h.del, h.ver, consistency.ApplyHint)
				h.target.Node.SendTo(p, rep.Node, db.cfg.RequestOverhead)
				if db.tracer != nil {
					db.tracer.Unmute(p, prev)
					db.tracer.Interval(p, trace.PhaseHintReplay, h.target.Node.ID, t0, p.Now())
				}
				db.HintsReplayed++
			}
			rep.hints = keep
		}
	}
}

// PendingHints reports the number of stored, unreplayed hints.
func (db *DB) PendingHints() int {
	n := 0
	for _, rep := range db.reps {
		n += len(rep.hints)
	}
	return n
}

// FlushAll forces every replica's memtable to flush (between benchmark
// phases).
func (db *DB) FlushAll() {
	for _, rep := range db.reps {
		rep.engine.ForceFlush()
	}
}

// Engines returns the per-replica engines for metric collection.
func (db *DB) Engines() []*storage.Engine {
	es := make([]*storage.Engine, len(db.reps))
	for i, r := range db.reps {
		es[i] = r.engine
	}
	return es
}
