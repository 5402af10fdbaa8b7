package main

import (
	"fmt"
	"runtime"
	"time"

	"cloudbench/internal/cassandra"
	"cloudbench/internal/cluster"
	"cloudbench/internal/consistency"
	"cloudbench/internal/hbase"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/ycsb"
)

// size is one workload's scale. Fields a workload does not use stay zero.
type size struct {
	nodes       int   // database machines (total, across segments)
	records     int64 // loaded records (per segment for megascale)
	loadThreads int
	threads     int   // closed-loop client threads per mix
	ops         int64 // client ops per mix
	segments    int
	sessions    int64 // megascale: client sessions over the run
	live        int   // megascale: live sessions, all segments together
}

// workload is one benchmark cell: its scale and a round function that
// builds, loads and runs it once at a seed. README.md records why each
// exists.
type workload struct {
	name       string
	full, tiny size
	round      func(seed int64, sz size, tr *tracer) (*round, error)
}

var workloads = []workload{
	{
		// Storage scans, row merges and the GC they cause dominate.
		name:  "fig3-quorum",
		full:  size{nodes: 15, records: 3000, loadThreads: 256, threads: 256, ops: 1000},
		tiny:  size{nodes: 15, records: 300, loadThreads: 32, threads: 32, ops: 100},
		round: fig3Round,
	},
	{
		// Little storage work: process switches, GC and the region and
		// WAL path dominate.
		name:  "fig1-hbase",
		full:  size{nodes: 15, records: 5000, loadThreads: 256, threads: 110, ops: 2500},
		tiny:  size{nodes: 15, records: 300, loadThreads: 32, threads: 16, ops: 100},
		round: fig1Round,
	},
	{
		// Session spawn churn, process pools and the shard window engine.
		name:  "megascale-churn",
		full:  size{nodes: 64, records: 2000, segments: 2, sessions: 15000, live: 2048},
		tiny:  size{nodes: 8, records: 100, segments: 2, sessions: 400, live: 32},
		round: megaRound,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The cells use the paper experiments' settings (internal/core's quick
// profile and megascale deployment): the settle time between phases,
// HBase's region pre-split, the session shape and cross-segment read
// rate, and below, a 2013 JVM server's effective CPU per request and
// staged-server slots, JVM pause behaviour, and a storage engine scaled so
// the working set needs the block cache. They are copied rather than
// imported so the benchmark does not depend on internal/core.
const (
	quiesce       = 2 * time.Second
	regionsPerSrv = 4
	opsPerSession = 2
	remoteEvery   = 20
	wanRTT        = 80 * time.Millisecond
)

func paperCluster(nodes int) cluster.Config {
	c := cluster.DefaultConfig()
	c.Nodes = nodes
	c.CPUSlots = 8
	c.CPUOpCost = 200 * time.Microsecond
	c.InternalOpCost = 100 * time.Microsecond
	c.ScanRowCost = 10 * time.Microsecond
	return c
}

func paperEngine() storage.Config {
	e := storage.DefaultConfig()
	e.CacheBytes = 4 << 20
	e.BlockBytes = 4 << 10
	e.MemtableBytes = 256 << 10
	return e
}

func paperGC() cluster.GCConfig {
	return cluster.GCConfig{
		MeanInterval: 500 * time.Millisecond,
		MeanPause:    25 * time.Millisecond,
		MinPause:     time.Millisecond,
	}
}

// round is one deploy → load → run of a workload: the host time of each
// phase, the op counts, and the model's outputs.
type round struct {
	backend           string  // the database the cell deploys
	newS, loadS, runS float64 // host seconds of the spans below
	spans             []span
	ops, failed       int64
	mem               memDelta
	// model holds the simulated outputs. They are a pure function of the
	// workload, its size and the seed: two rounds of one seed must agree
	// exactly, traced or not.
	model      map[string]float64
	violations []string
}

func (r *round) setupS() float64 { return r.newS + r.loadS }

func (r *round) check(ok bool, format string, args ...any) {
	if !ok {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// memDelta is the Go runtime's allocation activity over a run phase.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
}

// processStart anchors span times.
var processStart = time.Now()

// span runs fn as a named host-time span of the round (its parent) and
// returns its duration in seconds.
func (r *round) span(name string, fn func()) float64 {
	start := time.Since(processStart).Seconds()
	fn()
	end := time.Since(processStart).Seconds()
	r.spans = append(r.spans, span{Name: name, Parent: "round", Start: start, End: end})
	return end - start
}

// runPhase runs fn as the measured run phase: host wall time, allocation
// deltas and, with a tracer attached, a CPU profile of exactly this span.
func runPhase(r *round, tr *tracer, fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if tr != nil {
		if err := tr.start(); err != nil {
			return err
		}
	}
	var err error
	r.runS = r.span("sim.run", func() { err = fn() })
	if tr != nil {
		if perr := tr.stop(); perr != nil && err == nil {
			err = perr
		}
	}
	runtime.ReadMemStats(&m1)
	r.mem = memDelta{m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, m1.NumGC - m0.NumGC}
	return err
}

// loadPhase spawns the load driver on k, which the caller then runs: it
// inserts the workload's records through newClient, flushes every
// memtable and lets background work settle.
func loadPhase(k *sim.Kernel, newClient ycsb.ClientFactory, w *ycsb.Workload, threads int, flush func(), errs *int64) {
	k.Spawn("bench-load", func(p *sim.Proc) {
		*errs += ycsb.Load(p, newClient, w, threads, 0, w.Spec.RecordCount)
		flush()
		p.Sleep(quiesce)
	})
}

// cell lists what the layer counters are read from.
type cell struct {
	engines []*storage.Engine
	servers []*cluster.Node
	nodes   []*cluster.Node
	cas     []*cassandra.DB
	hb      *hbase.DB
	group   *sim.ShardGroup
}

// counters are the layers' cumulative public counters at one instant.
type counters struct {
	gets, puts, scans, flushes, compactions, compactedB int64
	walAppends, walBatches, cacheHits, cacheMisses      int64
	cpuBusy, cpuCap, cpuWait, diskBusy, elapsed         time.Duration
	cpuServed, netBytes                                 int64
	repairWrites, digestMismatch, timeouts              int64
	replSends, blocksWritten, windows, sstables         int64
}

func (c *cell) snapshot() counters {
	var s counters
	for _, e := range c.engines {
		s.gets += e.Gets
		s.puts += e.Puts
		s.scans += e.Scans
		s.flushes += e.Flushes
		s.compactions += e.Compactions
		s.compactedB += e.CompactedBytes
		s.walAppends += e.WALStats().Appends
		s.walBatches += e.WALStats().Batches
		s.cacheHits += e.Cache().Hits
		s.cacheMisses += e.Cache().Misses
		s.sstables += int64(e.Tables())
	}
	for _, n := range c.servers {
		now := time.Duration(n.Cluster().K.Now())
		s.elapsed += now
		s.cpuCap += now * time.Duration(n.CPU.Capacity())
		s.cpuBusy += n.CPU.BusyTime()
		s.cpuWait += n.CPU.MeanWait() * time.Duration(n.CPU.Served())
		s.cpuServed += n.CPU.Served()
		s.diskBusy += n.Disk.BusyTime()
	}
	for _, n := range c.nodes {
		s.netBytes += n.BytesSent
	}
	for _, db := range c.cas {
		s.repairWrites += db.RepairWrites
		s.digestMismatch += db.DigestMismatch
		s.timeouts += db.CoordinatorTimeouts
	}
	if c.hb != nil {
		s.replSends += c.hb.ReplicationSends
		s.blocksWritten += c.hb.FS().BlocksWritten
	}
	if c.group != nil {
		s.windows += c.group.Windows()
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// model turns the run phase's counter deltas, the probe and the oracle
// report into the model metrics.
func model(b, a counters, ops int64, simOpsPerS float64, pr *probe, rep consistency.Report, sessions int64) map[string]float64 {
	f := float64(ops)
	kops := f / 1000
	return map[string]float64{
		"ycsb.sim_ops_per_s":                simOpsPerS,
		"ycsb.sessions":                     float64(sessions),
		"kv.read_p50_ms":                    ms(pr.read.Percentile(50)),
		"kv.read_p99_ms":                    ms(pr.read.Percentile(99)),
		"kv.read_samples":                   float64(pr.read.Count()),
		"kv.update_p99_ms":                  ms(pr.update.Percentile(99)),
		"kv.update_samples":                 float64(pr.update.Count()),
		"kv.insert_p99_ms":                  ms(pr.insert.Percentile(99)),
		"kv.insert_samples":                 float64(pr.insert.Count()),
		"kv.scan_p99_ms":                    ms(pr.scan.Percentile(99)),
		"kv.scan_samples":                   float64(pr.scan.Count()),
		"storage.gets_per_op":               ratio(float64(a.gets-b.gets), f),
		"storage.puts_per_op":               ratio(float64(a.puts-b.puts), f),
		"storage.scans_per_op":              ratio(float64(a.scans-b.scans), f),
		"storage.flushes":                   float64(a.flushes - b.flushes),
		"storage.compactions":               float64(a.compactions - b.compactions),
		"storage.compacted_mb":              float64(a.compactedB-b.compactedB) / 1e6,
		"storage.sstables":                  float64(a.sstables), // a level, not a delta
		"storage.cache_hit_rate":            ratio(float64(a.cacheHits-b.cacheHits), float64(a.cacheHits-b.cacheHits+a.cacheMisses-b.cacheMisses)),
		"storage.wal_appends_per_batch":     ratio(float64(a.walAppends-b.walAppends), float64(a.walBatches-b.walBatches)),
		"cassandra.repair_writes_per_kop":   ratio(float64(a.repairWrites-b.repairWrites), kops),
		"cassandra.digest_mismatch_per_kop": ratio(float64(a.digestMismatch-b.digestMismatch), kops),
		"cassandra.timeouts":                float64(a.timeouts - b.timeouts),
		"hbase.replication_sends_per_op":    ratio(float64(a.replSends-b.replSends), f),
		"hdfs.blocks_written":               float64(a.blocksWritten - b.blocksWritten),
		"cluster.cpu_util":                  ratio(float64(a.cpuBusy-b.cpuBusy), float64(a.cpuCap-b.cpuCap)),
		"cluster.cpu_wait_ms":               ratio(ms(a.cpuWait-b.cpuWait), float64(a.cpuServed-b.cpuServed)),
		"cluster.disk_util":                 ratio(float64(a.diskBusy-b.diskBusy), float64(a.elapsed-b.elapsed)),
		"cluster.net_mb_per_kop":            ratio(float64(a.netBytes-b.netBytes)/1e6, kops),
		"sim.windows_per_kop":               ratio(float64(a.windows-b.windows), kops),
		"consistency.reads":                 float64(rep.Reads),
		"consistency.stale_reads":           float64(rep.StaleReads),
	}
}

// fig3Mixes are the five Table 1 mixes in paper order; fig1Ops is the
// paper's in-round micro test order (§4.1).
var (
	fig3Mixes = []func(int64) ycsb.Spec{ycsb.ReadLatest, ycsb.ScanShortRanges, ycsb.ReadMostly, ycsb.ReadModifyWrite, ycsb.ReadUpdate}
	fig1Ops   = []func(int64) ycsb.Spec{ycsb.MicroUpdate, ycsb.MicroRead, ycsb.MicroInsert, ycsb.MicroScan}
)

// rack is a single-kernel deployment on the paper's servers-plus-one-client
// rack, with the consistency oracle attached before the load.
type rack struct {
	k       *sim.Kernel
	clus    *cluster.Cluster
	servers []*cluster.Node
	client  *cluster.Node
	oracle  *consistency.Oracle
}

func newRack(seed int64, servers int) *rack {
	k := sim.NewKernel(seed)
	clus := cluster.New(k, paperCluster(servers+1))
	return &rack{k: k, clus: clus, servers: clus.Nodes[:servers], client: clus.Nodes[servers], oracle: consistency.New()}
}

// runMixes is the body the single-kernel cells share: load mixes[0]'s
// record shape, then run every mix back to back on the closed-loop thread
// runner with JVM pauses on, settling between mixes.
func runMixes(r *round, rk *rack, c *cell, newClient func() kv.Client, flush func(),
	mixes []func(int64) ycsb.Spec, settle time.Duration, sz size, tr *tracer) error {
	var loadErrs int64
	var err error
	r.loadS = r.span("ycsb.load", func() {
		loadPhase(rk.k, newClient, ycsb.NewWorkload(mixes[0](sz.records)), sz.loadThreads, flush, &loadErrs)
		err = rk.k.Run()
	})
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	r.check(loadErrs == 0, "%d failed loads", loadErrs)

	c.servers, c.nodes = rk.servers, rk.clus.Nodes
	before := c.snapshot()
	pr := &probe{}
	probed := func() kv.Client { return pr.wrap(newClient()) }
	var results []ycsb.Result
	err = runPhase(r, tr, func() error {
		gc := cluster.StartGC(rk.k, paperGC(), rk.servers)
		rk.k.Spawn("bench-run", func(p *sim.Proc) {
			defer gc.Stop()
			records := sz.records
			for _, mix := range mixes {
				wl := ycsb.NewWorkload(mix(records))
				results = append(results, ycsb.Run(p, probed, wl, ycsb.RunConfig{
					Threads: sz.threads, Ops: sz.ops, Oracle: rk.oracle,
				}))
				records = wl.Inserted()
				p.Sleep(settle)
			}
		})
		return rk.k.Run()
	})
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}

	rep := rk.oracle.Report()
	var elapsed time.Duration // virtual time of the mixes, back to back
	for _, res := range results {
		r.ops += res.MeasuredOps
		r.failed += res.Errors
		elapsed += res.Elapsed
	}
	want := int64(len(mixes)) * sz.ops
	r.check(r.ops == want, "%d of %d requested ops completed", r.ops, want)
	r.check(pr.failed == r.failed, "kv probe saw %d failed calls, runner %d failed ops", pr.failed, r.failed)
	r.check(rep.Reads > 0, "the consistency oracle observed no reads")
	r.check(rep.StaleReads == 0, "%d stale reads of %d (expected none)", rep.StaleReads, rep.Reads)
	r.model = model(before, c.snapshot(), r.ops, ratio(float64(r.ops), elapsed.Seconds()), pr, rep, 0)
	return nil
}

// fig3Round is one Fig. 3 QUORUM level: Cassandra RF 3 on the paper's
// 15+1 rack, read and write at QUORUM, read repair on every read, JVM
// pauses on, and the five Table 1 mixes back to back on one cluster.
func fig3Round(seed int64, sz size, tr *tracer) (*round, error) {
	r := &round{backend: "cassandra"}
	var rk *rack
	var db *cassandra.DB
	r.newS = r.span(r.backend+".new", func() {
		rk = newRack(seed, sz.nodes)
		cfg := cassandra.DefaultConfig()
		cfg.Replication = 3
		cfg.Engine = paperEngine()
		cfg.Engine.SyncWAL = false // commitlog_sync: periodic
		cfg.ReadCL, cfg.WriteCL = kv.Quorum, kv.Quorum
		cfg.ReadRepairChance = 1.0
		db = cassandra.New(rk.k, cfg, rk.servers)
	})
	db.SetOracle(rk.oracle)
	c := &cell{engines: db.Engines(), cas: []*cassandra.DB{db}}
	newClient := func() kv.Client { return db.NewClient(rk.client) }
	return r, runMixes(r, rk, c, newClient, db.FlushAll, fig3Mixes, quiesce, sz, tr)
}

// fig1Round is one Fig. 1 round: HBase RF 3 with in-memory replication,
// 1-byte single-field records, then update, read, insert and scan back
// to back.
func fig1Round(seed int64, sz size, tr *tracer) (*round, error) {
	r := &round{backend: "hbase"}
	var rk *rack
	var db *hbase.DB
	r.newS = r.span(r.backend+".new", func() {
		rk = newRack(seed, sz.nodes)
		cfg := hbase.DefaultConfig()
		cfg.Replication = 3
		cfg.Engine = paperEngine()
		cfg.MemReplication = true
		cfg.RegionsPerServer = regionsPerSrv
		keys := fig1Ops[0](sz.records)
		db = hbase.New(rk.k, cfg, rk.servers, rk.client, keys.SplitPoints(sz.nodes*regionsPerSrv))
	})
	db.SetOracle(rk.oracle)
	c := &cell{engines: db.Engines(), hb: db}
	newClient := func() kv.Client { return db.NewClient(rk.client) }
	return r, runMixes(r, rk, c, newClient, db.FlushAll, fig1Ops, quiesce/4, sz, tr)
}

// segment is one megascale segment: its own LAN cluster and Cassandra
// deployment on its own member kernel.
type segment struct {
	shard   *sim.Shard
	clus    *cluster.Cluster
	servers []*cluster.Node
	client  *cluster.Node
	db      *cassandra.DB
	w       *ycsb.Workload
	server  kv.Client // serves reads arriving from the other segment
	pr      probe
	result  ycsb.Result
	remote  int64
	loadErr int64
}

// megaRound is the megascale shape at sandbox size: segments of RF 3
// Cassandra nodes on a WAN chain, one per execution shard, serving
// read-mostly 1 KB records to short two-op sessions with a bounded live
// set, every 20th read crossing to the next segment.
func megaRound(seed int64, sz size, tr *tracer) (*round, error) {
	r := &round{backend: "cassandra"}
	s := sz.segments
	nodesPer := sz.nodes / s
	livePer := max(sz.live/s, 1)
	sessionsPer := sz.sessions / int64(s)
	var (
		g    *sim.ShardGroup
		segs = make([]*segment, s)
	)
	r.newS = r.span(r.backend+".new", func() {
		topo := paperCluster(sz.nodes + s)
		sizes := make([]int, s)
		for i := range sizes {
			sizes[i] = nodesPer + 1
		}
		topo.Geo = &cluster.GeoTopology{DCSizes: sizes, WANOneWay: cluster.WANChain(s, wanRTT)}
		plan := cluster.PlanShards(topo, s)
		g = sim.NewShardGroup(seed, plan.Shards, plan.Lookahead)
		g.SetPairLookahead(plan.PairLookahead)
		// One host thread runs every segment's windows in turn. Two pinned
		// workers run about twice as fast on a two-CPU host, but their
		// time then depends on both CPUs staying free, which doubled the
		// run-to-run spread on a shared host.
		g.SetWorkers(1)
		for i := range segs {
			shard := g.Shard(i)
			k := shard.Kernel()
			clus := cluster.New(k, paperCluster(nodesPer+1))
			cfg := cassandra.DefaultConfig()
			cfg.Replication = 3
			cfg.Engine = paperEngine()
			cfg.Engine.SyncWAL = false
			seg := &segment{shard: shard, clus: clus, servers: clus.Nodes[:nodesPer], client: clus.Nodes[nodesPer]}
			seg.db = cassandra.New(k, cfg, seg.servers)
			seg.w = ycsb.NewWorkload(ycsb.ReadMostly(sz.records))
			seg.server = seg.db.NewClient(seg.client)
			segs[i] = seg
		}
	})

	var err error
	r.loadS = r.span("ycsb.load", func() {
		for _, seg := range segs {
			seg := seg
			plain := func() kv.Client { return seg.db.NewClient(seg.client) }
			loadPhase(seg.shard.Kernel(), plain, seg.w, livePer, seg.db.FlushAll, &seg.loadErr)
		}
		err = g.Run()
	})
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}

	c := &cell{group: g}
	for _, seg := range segs {
		r.check(seg.loadErr == 0, "segment %d: %d failed loads", seg.shard.ID(), seg.loadErr)
		c.engines = append(c.engines, seg.db.Engines()...)
		c.servers = append(c.servers, seg.servers...)
		c.nodes = append(c.nodes, seg.clus.Nodes...)
		c.cas = append(c.cas, seg.db)
	}
	before := c.snapshot()
	err = runPhase(r, tr, func() error {
		for i, seg := range segs {
			seg, dst := seg, segs[(i+1)%s]
			seg.shard.Kernel().Spawn("bench-run", func(p *sim.Proc) {
				mixed := func() kv.Client {
					return seg.pr.wrap(&remoteReadClient{
						Client: seg.db.NewClient(seg.client),
						src:    seg.shard, dst: dst.shard, server: dst.server,
						remote: &seg.remote, every: remoteEvery,
					})
				}
				seg.result = ycsb.RunSessions(p, mixed, seg.w, ycsb.SessionConfig{
					Sessions: sessionsPer, Live: livePer, OpsPerSession: opsPerSession,
				})
			})
		}
		return g.Run()
	})
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}

	pr := &probe{}
	var simOpsPerS float64
	var remote int64
	for _, seg := range segs {
		res := seg.result
		r.ops += res.MeasuredOps
		r.failed += res.Errors
		simOpsPerS += res.Throughput
		remote += seg.remote
		pr.merge(&seg.pr)
		r.check(res.NotFound == 0, "segment %d: %d reads of loaded keys found nothing", seg.shard.ID(), res.NotFound)
	}
	want := sessionsPer * int64(s) * opsPerSession
	r.check(r.ops == want, "%d of %d requested ops completed", r.ops, want)
	r.check(pr.failed == r.failed, "kv probe saw %d failed calls, runner %d failed ops", pr.failed, r.failed)
	r.check(remote > 0, "no read crossed segments")
	r.model = model(before, c.snapshot(), r.ops, simOpsPerS, pr, consistency.Report{}, sessionsPer*int64(s))
	return r, nil
}
