package core

import (
	"time"

	"cloudbench/internal/cassandra"
	"cloudbench/internal/cluster"
	"cloudbench/internal/consistency"
	"cloudbench/internal/geo"
	"cloudbench/internal/hbase"
	"cloudbench/internal/kv"
	"cloudbench/internal/objstore"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/trace"
	"cloudbench/internal/ycsb"
)

// backend is what the benchmark needs of a database under test beyond
// its clients: instrument attachment and a memtable flush after load.
// hbase.DB, cassandra.DB and objstore.DB all satisfy it.
type backend interface {
	SetOracle(*consistency.Oracle)
	SetTracer(*trace.Tracer)
	FlushAll()
}

// deployment is one freshly provisioned database under test.
type deployment struct {
	k         *sim.Kernel
	group     *sim.ShardGroup // non-nil when Options.Shards > 1
	clus      *cluster.Cluster
	db        backend
	newClient ycsb.ClientFactory
	gc        *cluster.GCController
	// stop halts the backend's background daemon (the object store's
	// anti-entropy replicator) so the kernel can drain; nil when none.
	stop func()
	// ctrl is the adaptive client's shared controller; nil unless the
	// cell runs the adaptive client.
	ctrl *geo.Controller
}

// engineConfig derives the storage engine configuration for an experiment.
// Block and cache sizes are scaled down with the record counts so the
// working set exceeds the cache — avoiding the fit-in-memory problem §3.1
// warns would make read benchmarks meaningless.
func engineConfig(o Options) storage.Config {
	cfg := storage.DefaultConfig()
	cfg.CacheBytes = o.CacheBytes
	cfg.BlockBytes = 4 << 10
	// Scale the memtable to the experiment so flushes happen a handful
	// of times per run rather than never or constantly.
	cfg.MemtableBytes = 256 << 10
	return cfg
}

// newShardGroup builds the member-kernel group for a shard plan: the
// per-pair delivery floors feed adaptive window widening, and the pinned
// worker cap comes straight from Options.
func newShardGroup(o Options, plan cluster.ShardPlan) *sim.ShardGroup {
	g := sim.NewShardGroup(o.Seed, plan.Shards, plan.Lookahead)
	g.SetPairLookahead(plan.PairLookahead)
	g.SetWorkers(o.ShardWorkers)
	g.SetSpawnPerWindow(envSpawnWindows())
	return g
}

// deploy provisions the cell's database. The machines are laid out in
// one block per data center — the DC's servers, then one client-attach
// machine — so a single-rack cell is one block of Options.ServerNodes
// servers plus the client machine (which also hosts the HBase master),
// mirroring the paper's 15+1, and a geo cell (perDC set) is one block of
// geoServersPerDC servers per DC over a WANChain of the cell's RTT.
//
// With Options.Shards > 1 the deployment runs on a sharded kernel group,
// placed whole on the group's home shard: benchmark clients touch every
// node directly (SendTo/RoundTrip are process-carried), so the model
// cannot be split across member kernels without changing its event
// order. The home shard inherits the cell seed unchanged, which is what
// makes `-shards N` byte-identical to `-shards 1` for every experiment —
// the window engine chops the same sequential event stream into
// conservative windows without reordering it. Spatially partitioned
// parallelism is exercised by the megascale workload instead.
//
// Client threads round-robin across the attach machines (the ycsb runner
// calls the factory once per thread, in thread order, so the assignment
// is deterministic).
func deploy(o Options, c cell) *deployment {
	dcs, perDC := 1, o.ServerNodes
	ccfg := o.Cluster
	if c.perDC != nil {
		dcs, perDC = len(c.perDC), geoServersPerDC
		sizes := make([]int, dcs)
		for i := range sizes {
			sizes[i] = perDC + 1
		}
		ccfg.Geo = &cluster.GeoTopology{
			DCSizes:   sizes,
			WANOneWay: cluster.WANChain(dcs, c.rtt),
			WANJitter: geoWANJitter,
		}
	}
	ccfg.Nodes = dcs * (perDC + 1)

	d := &deployment{}
	if o.Shards > 1 {
		d.group = newShardGroup(o, cluster.PlanShards(ccfg, o.Shards))
		d.k = d.group.Shard(0).Kernel()
	} else {
		d.k = sim.NewKernel(o.Seed)
	}
	d.clus = cluster.New(d.k, ccfg)
	servers := make([]*cluster.Node, 0, dcs*perDC)
	attach := make([]*cluster.Node, 0, dcs)
	for dc := 0; dc < dcs; dc++ {
		base := dc * (perDC + 1)
		servers = append(servers, d.clus.Nodes[base:base+perDC]...)
		attach = append(attach, d.clus.Nodes[base+perDC])
	}

	var client func(*cluster.Node) kv.Client
	switch c.db {
	case "HBase":
		cfg := hbase.DefaultConfig()
		cfg.Replication = c.rf
		cfg.Engine = engineConfig(o)
		cfg.MemReplication = o.MemReplication
		cfg.RegionsPerServer = o.RegionsPerServer
		splits := c.spec.SplitPoints(o.ServerNodes * o.RegionsPerServer)
		db := hbase.New(d.k, cfg, servers, attach[0], splits)
		d.db, client = db, func(n *cluster.Node) kv.Client { return db.NewClient(n) }
	case "ObjStore":
		// Unlike Cassandra's periodic commitlog sync, the engine keeps
		// SyncWAL: the W=1 ack's entire promise is one durable copy.
		cfg := objstore.DefaultConfig()
		cfg.Replication = c.rf
		cfg.Engine = engineConfig(o)
		cfg.ReadMode = c.mode
		cfg.ReplicatorInterval = c.interval
		db := objstore.New(d.k, cfg, servers)
		d.db, d.stop, client = db, db.Stop, func(n *cluster.Node) kv.Client { return db.NewClient(n) }
	default: // Cassandra
		cfg := cassandra.DefaultConfig()
		cfg.Replication = c.rf
		cfg.DCReplicas = c.perDC // overrides Replication when set
		cfg.Engine = engineConfig(o)
		cfg.Engine.SyncWAL = false // commitlog_sync: periodic
		cfg.ReadRepairChance = o.ReadRepairChance
		cfg.MutationStageMeanDelay = c.mutationStage
		if !c.adaptive {
			cfg.ReadCL, cfg.WriteCL = c.level.Read, c.level.Write
		}
		db := cassandra.New(d.k, cfg, servers)
		d.db, client = db, func(n *cluster.Node) kv.Client { return db.NewClient(n) }
		if c.adaptive {
			d.ctrl = geo.NewController(geo.ControllerConfig{
				Ladder:   geo.WriteLadder(kv.LocalQuorum),
				Deadline: geoSLADeadline,
				// Trust the estimate early so the step-down transient
				// lands inside the warmup window at every profile scale,
				// and hold the re-probe past the measured run so probe
				// ops (paying the strong level's WAN price) cannot
				// pollute the p99.
				MinSamples: 10,
				Cooldown:   30 * time.Second,
			})
			client = func(n *cluster.Node) kv.Client {
				base := db.NewClient(n)
				return geo.NewClient(d.ctrl, func(s geo.Stage) kv.Client {
					return base.WithConsistency(s.Read, s.Write)
				})
			}
		}
	}
	next := 0
	d.newClient = func() kv.Client {
		n := attach[next%len(attach)]
		next++
		return client(n)
	}
	if o.EnableGC && !c.noGC {
		d.gc = cluster.StartGC(d.k, o.GC, servers)
	}
	return d
}

// drive runs fn as the benchmark driver process and executes the
// simulation to completion, stopping the GC pause processes and the
// backend's background daemon once the driver finishes so the kernel can
// drain.
func (d *deployment) drive(fn func(p *sim.Proc)) error {
	d.k.Spawn("bench-driver", func(p *sim.Proc) {
		defer func() {
			if d.gc != nil {
				d.gc.Stop()
			}
			if d.stop != nil {
				d.stop()
			}
		}()
		fn(p)
	})
	if d.group != nil {
		return d.group.Run()
	}
	return d.k.Run()
}

// loadAndSettle loads the workload's base records and lets flushes settle.
func (d *deployment) loadAndSettle(p *sim.Proc, w *ycsb.Workload, threads int) {
	ycsb.Load(p, d.newClient, w, threads, 0, w.Spec.RecordCount)
	d.db.FlushAll()
	p.Sleep(quiesce)
}
