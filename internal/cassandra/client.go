package cassandra

import (
	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// Client is a Cassandra client bound to a client machine. Each request is
// sent to a coordinator chosen round-robin among live hosts (like a
// token-unaware driver), carrying the consistency levels configured on the
// client — Cassandra lets the consistency level be specified at request
// time, which is what makes the paper's Fig. 3 experiment possible.
type Client struct {
	db      *DB
	node    *cluster.Node
	readCL  kv.ConsistencyLevel
	writeCL kv.ConsistencyLevel
	next    int
	oid     int // oracle client identity for monotonic-read tracking
}

// NewClient returns a client issuing requests from node at the database's
// default consistency levels.
func (db *DB) NewClient(node *cluster.Node) *Client {
	oid := -1
	if db.oracle != nil {
		oid = db.oracle.RegisterClient()
	}
	return &Client{
		db: db, node: node,
		readCL: db.cfg.ReadCL, writeCL: db.cfg.WriteCL,
		oid: oid,
	}
}

// WithConsistency returns a copy of the client using the given read and
// write levels.
func (c *Client) WithConsistency(read, write kv.ConsistencyLevel) *Client {
	cc := *c
	cc.readCL = read
	cc.writeCL = write
	return &cc
}

var _ kv.Client = (*Client)(nil)

// coordinator picks the next live host round-robin, preferring hosts in
// the client's own zone (a DC-aware load-balancing policy): requests only
// cross the wide-area link when the replica set demands it, not on the
// first hop.
func (c *Client) coordinator() (*Replica, error) {
	reps := c.db.reps
	var fallback *Replica
	for i := 0; i < len(reps); i++ {
		rep := reps[(c.next+i)%len(reps)]
		if rep.Node.Down() {
			continue
		}
		if rep.Node.Zone == c.node.Zone {
			c.next = (c.next + i + 1) % len(reps)
			return rep, nil
		}
		if fallback == nil {
			fallback = rep
		}
	}
	if fallback != nil {
		c.next = (c.next + 1) % len(reps)
		return fallback, nil
	}
	return nil, kv.ErrUnavailable
}

// Read implements kv.Client at the client's read consistency level.
func (c *Client) Read(p *sim.Proc, key kv.Key, fields []string) (kv.Record, error) {
	coord, err := c.coordinator()
	if err != nil {
		return nil, err
	}
	c.db.Reads++
	start := p.Now()
	reqSize := len(key) + c.db.cfg.RequestOverhead
	if !c.node.SendTo(p, coord.Node, reqSize) {
		return nil, kv.ErrUnavailable
	}
	c.db.execCoord(p, coord.Node, c.db.cl.Config.CPUOpCost)
	row, err := c.db.read(p, coord, key, c.readCL)
	if err != nil {
		return nil, err
	}
	if c.db.oracle != nil {
		// The observed version is the reconciled row the coordinator is
		// about to return (a tombstone's version for deleted rows, 0 for
		// never-written keys) — exactly what this client sees.
		var ver kv.Version
		if row != nil {
			ver = row.Version()
		}
		c.db.oracle.ReadObserved(c.oid, key, ver, start)
	}
	var rec kv.Record
	if row != nil && row.Live() {
		rec = row.Project(fields)
	}
	if !coord.Node.SendTo(p, c.node, rec.Bytes()+c.db.cfg.RequestOverhead) {
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
	coord, err := c.coordinator()
	if err != nil {
		return err
	}
	c.db.Writes++
	if !c.node.SendTo(p, coord.Node, c.db.mutationSize(key, rec)) {
		return kv.ErrUnavailable
	}
	c.db.execCoord(p, coord.Node, c.db.cl.Config.CPUOpCost)
	if err := c.db.write(p, coord, key, rec, del, c.writeCL); err != nil {
		return err
	}
	if !coord.Node.SendTo(p, c.node, c.db.cfg.RequestOverhead) {
		return kv.ErrUnavailable
	}
	return nil
}

// Scan implements kv.Client. Range scans are served at the scan path's
// fixed semantics (one replica per range) and do not honor consistency
// levels, matching get_range_slices behaviour the paper relies on.
func (c *Client) Scan(p *sim.Proc, start kv.Key, limit int, fields []string) ([]kv.KV, error) {
	coord, err := c.coordinator()
	if err != nil {
		return nil, err
	}
	c.db.ScansDone++
	reqSize := len(start) + c.db.cfg.RequestOverhead
	if !c.node.SendTo(p, coord.Node, reqSize) {
		return nil, kv.ErrUnavailable
	}
	c.db.execCoord(p, coord.Node, c.db.cl.Config.CPUOpCost)
	rows := c.db.scan(p, coord, start, limit)
	respSize := c.db.cfg.RequestOverhead
	out := make([]kv.KV, 0, len(rows))
	for _, r := range rows {
		rec := r.Row.Project(fields)
		out = append(out, kv.KV{Key: r.Key, Record: rec})
		respSize += rec.Bytes()
	}
	if !coord.Node.SendTo(p, c.node, respSize) {
		return nil, kv.ErrUnavailable
	}
	return out, nil
}
