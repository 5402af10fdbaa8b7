// Package hbase implements an HBase-like cloud serving database on the
// simulated cluster: an HMaster assigning key-range regions to region
// servers, strong consistency (every read and write is served by the one
// region server owning the key), a write path of WAL append plus in-memory
// replication to peer memstores, and store files persisted on the
// simulated HDFS where the replication-factor knob lives.
//
// The design follows §2 of the paper: "HBase doesn't write updates to disk
// instantly, instead, it saves updates in a write-ahead-log (WAL) stored in
// hard drive and then does in-memory data replication across different
// nodes [...] In-memory files are flushed into HDFS when the size of them
// reaches the upper limit. HBase uses HDFS to configure the replication
// factor and save replicas."
package hbase

import (
	"fmt"
	"sort"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/consistency"
	"cloudbench/internal/hdfs"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/trace"
)

// Config parameterizes the database.
type Config struct {
	// Replication is the HDFS replication factor, the paper's knob.
	Replication int
	// RegionsPerServer pre-splits the table so load spreads evenly.
	RegionsPerServer int
	// Engine configures each region's memstore and store files.
	Engine storage.Config
	// HDFS configures the underlying filesystem (Replication overrides
	// its factor).
	HDFS hdfs.Config
	// MemReplication selects the paper-described write path: WAL append
	// plus in-memory replication to Replication-1 peers. When false,
	// writes replicate synchronously to peer disks instead (ablation A2),
	// which the paper's expectations section assumed before measuring.
	MemReplication bool
	// RequestOverhead is the fixed per-request message overhead in bytes.
	RequestOverhead int
}

// DefaultConfig returns an HBase configuration matching the paper's
// recommended setup at replication factor 3.
func DefaultConfig() Config {
	return Config{
		Replication:      3,
		RegionsPerServer: 4,
		Engine:           storage.DefaultConfig(),
		HDFS:             hdfs.DefaultConfig(),
		MemReplication:   true,
		RequestOverhead:  64,
	}
}

// DB is one HBase deployment: a master, region servers on every server
// node, and an HDFS instance over the same nodes.
type DB struct {
	k       *sim.Kernel
	cfg     Config
	cluster *cluster.Cluster
	fs      *hdfs.FS

	master  *cluster.Node
	servers []*RegionServer
	regions []*Region // sorted by StartKey

	nextVersion kv.Version
	oracle      *consistency.Oracle
	tracer      *trace.Tracer

	// Metrics.
	Reads, Writes, ScansDone int64
	ReplicationSends         int64
}

// SetOracle attaches a consistency oracle. HBase is the strong-consistency
// control of the audit experiment: every key has exactly one serving
// region, so the oracle should report zero stale reads and zero monotonic
// violations. Hook call sites are nil-gated, so the default unobserved
// runs pay nothing.
func (db *DB) SetOracle(o *consistency.Oracle) { db.oracle = o }

// Oracle returns the attached consistency oracle, if any.
func (db *DB) Oracle() *consistency.Oracle { return db.oracle }

// SetTracer attaches a request tracer recording per-phase spans along the
// read, write, and flush paths, including WAL syncs and HDFS pipeline
// hops. Pass nil (the default) to run untraced; call sites are nil-gated.
func (db *DB) SetTracer(t *trace.Tracer) {
	db.tracer = t
	db.fs.SetTracer(t)
	for _, r := range db.regions {
		node := r.Server.Node
		if t == nil {
			r.engine.OnWALSync = nil
			continue
		}
		r.engine.OnWALSync = func(p *sim.Proc, start sim.Time) {
			t.Phase(p, trace.PhaseWAL, node.ID, start)
		}
	}
}

// Tracer returns the attached tracer, if any.
func (db *DB) Tracer() *trace.Tracer { return db.tracer }

// execServer charges region-server CPU for one request, splitting
// queueing (stop-the-world + CPU-slot wait) from service when traced.
func (db *DB) execServer(p *sim.Proc, n *cluster.Node, cost time.Duration) {
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

// RegionServer hosts a set of regions on one node.
type RegionServer struct {
	Node    *cluster.Node
	Regions []*Region
	db      *DB
	// memPeers are the nodes receiving in-memory replicas of this
	// server's writes.
	memPeers []*cluster.Node
}

// Region is one key range [StartKey, EndKey) with its own memstore and
// store files; EndKey "" means unbounded.
type Region struct {
	StartKey, EndKey kv.Key
	Server           *RegionServer
	engine           *storage.Engine
}

// hdfsIO adapts a region server's HDFS view to storage.TableIO: tables are
// HDFS files whose first replica is local to the server.
type hdfsIO struct {
	fs     *hdfs.FS
	node   *cluster.Node
	prefix string
}

func (h hdfsIO) name(id int64) string { return fmt.Sprintf("%s/sst-%d", h.prefix, id) }

func (h hdfsIO) WriteTable(p *sim.Proc, id int64, bytes int64) {
	h.fs.Create(p, h.name(id), bytes, h.node)
}

func (h hdfsIO) ReadTable(p *sim.Proc, id int64, bytes int64) {
	if f, err := h.fs.Open(h.name(id)); err == nil {
		_ = h.fs.ReadSequential(p, f, h.node)
	}
}

func (h hdfsIO) ReadBlock(p *sim.Proc, id int64, bytes int) {
	if f, err := h.fs.Open(h.name(id)); err == nil {
		_ = h.fs.ReadAt(p, f, bytes, h.node)
	}
}

func (h hdfsIO) DeleteTable(id int64) { h.fs.Delete(h.name(id)) }

// New builds a database over the given server nodes, with the master on
// masterNode (the paper co-locates it with the YCSB client machine).
// splits are the region split points; len(splits)+1 regions are created
// and assigned round-robin.
func New(k *sim.Kernel, cfg Config, serverNodes []*cluster.Node, masterNode *cluster.Node, splits []kv.Key) *DB {
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(serverNodes) {
		cfg.Replication = len(serverNodes)
	}
	fcfg := cfg.HDFS
	fcfg.Replication = cfg.Replication
	db := &DB{
		k:       k,
		cfg:     cfg,
		fs:      hdfs.New(k, fcfg, serverNodes),
		master:  masterNode,
		cluster: masterNode.Cluster(),
	}
	for _, n := range serverNodes {
		rs := &RegionServer{Node: n, db: db}
		db.servers = append(db.servers, rs)
	}
	// In-memory replication peers: the next Replication-1 servers in
	// ring order, mirroring the fixed pipeline HDFS would use.
	for i, rs := range db.servers {
		for j := 1; j < cfg.Replication; j++ {
			rs.memPeers = append(rs.memPeers, db.servers[(i+j)%len(db.servers)].Node)
		}
	}
	// Regions: splits define boundaries; assign round-robin.
	sorted := append([]kv.Key(nil), splits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	bounds := append([]kv.Key{""}, sorted...)
	for i, start := range bounds {
		end := kv.Key("")
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		rs := db.servers[i%len(db.servers)]
		region := &Region{StartKey: start, EndKey: end, Server: rs}
		region.engine = storage.NewEngine(k, cfg.Engine,
			hdfsIO{fs: db.fs, node: rs.Node, prefix: fmt.Sprintf("/hbase/r%d", i)},
			storage.DiskLog{Disk: rs.Node.Disk},
			k.Seed()^int64(i+1))
		rs.Regions = append(rs.Regions, region)
		db.regions = append(db.regions, region)
	}
	return db
}

// FS exposes the underlying HDFS for inspection.
func (db *DB) FS() *hdfs.FS { return db.fs }

// Servers returns the region servers.
func (db *DB) Servers() []*RegionServer { return db.servers }

// Regions returns the regions in key order.
func (db *DB) Regions() []*Region { return db.regions }

// regionFor returns the region owning key.
func (db *DB) regionFor(key kv.Key) *Region {
	// regions are sorted by StartKey; find the last region whose start
	// is <= key.
	i := sort.Search(len(db.regions), func(i int) bool { return db.regions[i].StartKey > key })
	return db.regions[i-1]
}

// version issues the next write version.
func (db *DB) version() kv.Version {
	db.nextVersion++
	return kv.Version(db.k.Now()) + db.nextVersion
}

// write is the region-server write path executed by p at the server.
func (rs *RegionServer) write(p *sim.Proc, r *Region, key kv.Key, rec kv.Record, del bool) {
	db := rs.db
	cpu := db.cluster.Config.CPUOpCost
	db.execServer(p, rs.Node, cpu)
	ver := db.version()
	if db.oracle != nil {
		// One read-serving replica per key: the owning region. Peer
		// memstores (or peer WALs on the ablation path) are durability
		// copies that never serve reads, so they are not visibility
		// events.
		db.oracle.WriteBegin(key, ver, 1, p.Now())
	}

	if db.cfg.MemReplication {
		// Paper path: WAL locally, replicate the edit to peer memstores
		// in parallel, ack when all peers confirm (strong consistency).
		q := sim.NewQuorum(db.k, len(rs.memPeers), len(rs.memPeers))
		size := rec.Bytes() + len(key) + db.cfg.RequestOverhead
		for _, peer := range rs.memPeers {
			peer := peer
			db.ReplicationSends++
			db.k.Go("hbase-memrepl", func(q2 *sim.Proc) {
				var t0 sim.Time
				if db.tracer != nil {
					t0 = q2.Now()
				}
				if !rs.Node.SendTo(q2, peer, size) {
					q.Fail()
					return
				}
				// The pipeline receiver is the co-located DataNode — a
				// small-heap daemon whose GC pauses are negligible — so
				// the in-memory apply bypasses the region server's
				// stop-the-world windows.
				peer.ExecDaemon(q2, db.cluster.Config.MemOpCost)
				if !peer.SendTo(q2, rs.Node, db.cfg.RequestOverhead) {
					q.Fail()
					return
				}
				if db.tracer != nil {
					db.tracer.Phase(q2, trace.PhaseFanout, peer.ID, t0)
				}
				q.Succeed()
			})
		}
		if del {
			r.engine.ApplyDelete(p, key, ver)
		} else {
			r.engine.Apply(p, key, rec, ver)
		}
		if db.oracle != nil {
			db.oracle.ReplicaApply(key, ver, rs.Node.ID, consistency.ApplyWrite, p.Now())
		}
		q.Wait(p)
		if db.oracle != nil {
			db.oracle.WriteAck(key, ver, p.Now())
		}
		return
	}

	// Ablation path: synchronous replication to peer disks (what the
	// paper's expectations predicted): each peer WALs the edit before
	// acking.
	q := sim.NewQuorum(db.k, len(rs.memPeers), len(rs.memPeers))
	size := rec.Bytes() + len(key) + db.cfg.RequestOverhead
	for _, peer := range rs.memPeers {
		peer := peer
		db.ReplicationSends++
		db.k.Go("hbase-syncrepl", func(q2 *sim.Proc) {
			var t0 sim.Time
			if db.tracer != nil {
				t0 = q2.Now()
			}
			if !rs.Node.SendTo(q2, peer, size) {
				q.Fail()
				return
			}
			peer.Exec(q2, cpu)
			peer.Disk.Append(q2, size)
			if !peer.SendTo(q2, rs.Node, db.cfg.RequestOverhead) {
				q.Fail()
				return
			}
			if db.tracer != nil {
				db.tracer.Phase(q2, trace.PhaseFanout, peer.ID, t0)
			}
			q.Succeed()
		})
	}
	if del {
		r.engine.ApplyDelete(p, key, ver)
	} else {
		r.engine.Apply(p, key, rec, ver)
	}
	if db.oracle != nil {
		db.oracle.ReplicaApply(key, ver, rs.Node.ID, consistency.ApplyWrite, p.Now())
	}
	q.Wait(p)
	if db.oracle != nil {
		db.oracle.WriteAck(key, ver, p.Now())
	}
}

// Client is an HBase client bound to a client machine. It caches region
// locations after a META lookup at the master, like the real client.
type Client struct {
	db   *DB
	node *cluster.Node
	meta map[*Region]bool // regions already located
	oid  int              // oracle client identity
}

// NewClient returns a client issuing requests from node.
func (db *DB) NewClient(node *cluster.Node) *Client {
	oid := -1
	if db.oracle != nil {
		oid = db.oracle.RegisterClient()
	}
	return &Client{db: db, node: node, meta: make(map[*Region]bool), oid: oid}
}

var _ kv.Client = (*Client)(nil)

// locate resolves the region for key, paying one META round trip to the
// master the first time a region is seen.
func (c *Client) locate(p *sim.Proc, key kv.Key) (*Region, error) {
	r := c.db.regionFor(key)
	if !c.meta[r] {
		if !c.node.RoundTrip(p, c.db.master, c.db.cfg.RequestOverhead, c.db.cfg.RequestOverhead, func() {
			c.db.master.Exec(p, c.db.cluster.Config.MemOpCost)
		}) {
			return nil, kv.ErrUnavailable
		}
		c.meta[r] = true
	}
	if r.Server.Node.Down() {
		return nil, kv.ErrUnavailable
	}
	return r, nil
}

// Read implements kv.Client: strongly consistent read from the owning
// region server.
func (c *Client) Read(p *sim.Proc, key kv.Key, fields []string) (kv.Record, error) {
	r, err := c.locate(p, key)
	if err != nil {
		return nil, err
	}
	c.db.Reads++
	start := p.Now()
	if !c.node.SendTo(p, r.Server.Node, len(key)+c.db.cfg.RequestOverhead) {
		return nil, kv.ErrUnavailable
	}
	c.db.execServer(p, r.Server.Node, c.db.cluster.Config.CPUOpCost)
	var t0 sim.Time
	if c.db.tracer != nil {
		t0 = p.Now()
	}
	var rec kv.Record
	row := r.engine.Get(p, key)
	if c.db.tracer != nil {
		c.db.tracer.Phase(p, trace.PhaseStorage, r.Server.Node.ID, t0)
	}
	if row != nil && row.Live() {
		rec = row.Project(fields)
	}
	if c.db.oracle != nil {
		var ver kv.Version
		if row != nil {
			ver = row.Version()
		}
		c.db.oracle.ReadObserved(c.oid, key, ver, start)
	}
	if !r.Server.Node.SendTo(p, c.node, rec.Bytes()+c.db.cfg.RequestOverhead) {
		return nil, kv.ErrUnavailable
	}
	if rec == nil {
		return nil, kv.ErrNotFound
	}
	return rec, nil
}

// Insert implements kv.Client.
func (c *Client) Insert(p *sim.Proc, key kv.Key, rec kv.Record) error {
	return c.put(p, key, rec, false)
}

// Update implements kv.Client.
func (c *Client) Update(p *sim.Proc, key kv.Key, rec kv.Record) error {
	return c.put(p, key, rec, false)
}

// Delete implements kv.Client.
func (c *Client) Delete(p *sim.Proc, key kv.Key) error {
	return c.put(p, key, nil, true)
}

func (c *Client) put(p *sim.Proc, key kv.Key, rec kv.Record, del bool) error {
	r, err := c.locate(p, key)
	if err != nil {
		return err
	}
	c.db.Writes++
	size := rec.Bytes() + len(key) + c.db.cfg.RequestOverhead
	ok := c.node.RoundTrip(p, r.Server.Node, size, c.db.cfg.RequestOverhead, func() {
		r.Server.write(p, r, key, rec, del)
	})
	if !ok {
		return kv.ErrUnavailable
	}
	return nil
}

// Scan implements kv.Client: a range scan that follows region boundaries,
// contacting each owning region server in turn.
func (c *Client) Scan(p *sim.Proc, start kv.Key, limit int, fields []string) ([]kv.KV, error) {
	c.db.ScansDone++
	var out []kv.KV
	key := start
	for len(out) < limit {
		r, err := c.locate(p, key)
		if err != nil {
			return out, err
		}
		if !c.node.SendTo(p, r.Server.Node, len(key)+c.db.cfg.RequestOverhead) {
			return out, kv.ErrUnavailable
		}
		c.db.execServer(p, r.Server.Node, c.db.cluster.Config.CPUOpCost)
		var t0 sim.Time
		if c.db.tracer != nil {
			t0 = p.Now()
		}
		rows := r.engine.Scan(p, key, limit-len(out))
		if n := len(rows); n > 0 && c.db.cluster.Config.ScanRowCost > 0 {
			r.Server.Node.Exec(p, time.Duration(n)*c.db.cluster.Config.ScanRowCost)
		}
		if c.db.tracer != nil {
			c.db.tracer.Phase(p, trace.PhaseStorage, r.Server.Node.ID, t0)
		}
		resp := c.db.cfg.RequestOverhead
		for _, row := range rows {
			resp += row.Row.Bytes()
		}
		if !r.Server.Node.SendTo(p, c.node, resp) {
			return out, kv.ErrUnavailable
		}
		for _, row := range rows {
			if r.EndKey != "" && row.Key >= r.EndKey {
				break
			}
			out = append(out, kv.KV{Key: row.Key, Record: row.Row.Project(fields)})
			if len(out) == limit {
				return out, nil
			}
		}
		if r.EndKey == "" {
			break // last region exhausted
		}
		key = r.EndKey
	}
	return out, nil
}

// FlushAll forces every region's memstore to flush; used between the load
// and run phases of a benchmark, like a YCSB-driven major flush.
func (db *DB) FlushAll() {
	for _, r := range db.regions {
		r.engine.ForceFlush()
	}
}

// Engines returns the per-region engines, for metric collection.
func (db *DB) Engines() []*storage.Engine {
	es := make([]*storage.Engine, len(db.regions))
	for i, r := range db.regions {
		es[i] = r.engine
	}
	return es
}

// WaitQuiesce sleeps p until background flushes and compactions complete
// (best effort: bounded polling).
func (db *DB) WaitQuiesce(p *sim.Proc, max time.Duration) {
	deadline := p.Now().Add(max)
	for p.Now() < deadline {
		busy := false
		for _, r := range db.regions {
			if r.engine.Tables() > 2*db.cfg.Engine.CompactMinTables {
				busy = true
			}
		}
		if !busy {
			return
		}
		p.Sleep(100 * time.Millisecond)
	}
}
