package main

import (
	"errors"
	"time"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
)

// probe records simulated per-verb latency at the kv.Client boundary for
// every client it wraps. One probe belongs to one kernel: segments on
// different shards run on different host threads and keep their own.
type probe struct {
	read, update, insert, scan stats.Histogram
	// failed counts verb errors other than kv.ErrNotFound.
	failed int64
}

func (pr *probe) wrap(c kv.Client) kv.Client { return &probedClient{Client: c, pr: pr} }

func (pr *probe) merge(o *probe) {
	pr.read.Merge(&o.read)
	pr.update.Merge(&o.update)
	pr.insert.Merge(&o.insert)
	pr.scan.Merge(&o.scan)
	pr.failed += o.failed
}

func (pr *probe) note(h *stats.Histogram, p *sim.Proc, start sim.Time, err error) {
	h.Record(time.Duration(p.Now() - start))
	if err != nil && !errors.Is(err, kv.ErrNotFound) {
		pr.failed++
	}
}

type probedClient struct {
	kv.Client
	pr *probe
}

func (c *probedClient) Read(p *sim.Proc, key kv.Key, fields []string) (kv.Record, error) {
	t := p.Now()
	rec, err := c.Client.Read(p, key, fields)
	c.pr.note(&c.pr.read, p, t, err)
	return rec, err
}

func (c *probedClient) Insert(p *sim.Proc, key kv.Key, rec kv.Record) error {
	t := p.Now()
	err := c.Client.Insert(p, key, rec)
	c.pr.note(&c.pr.insert, p, t, err)
	return err
}

func (c *probedClient) Update(p *sim.Proc, key kv.Key, rec kv.Record) error {
	t := p.Now()
	err := c.Client.Update(p, key, rec)
	c.pr.note(&c.pr.update, p, t, err)
	return err
}

func (c *probedClient) Scan(p *sim.Proc, start kv.Key, limit int, fields []string) ([]kv.KV, error) {
	t := p.Now()
	rows, err := c.Client.Scan(p, start, limit, fields)
	c.pr.note(&c.pr.scan, p, t, err)
	return rows, err
}

// remoteReadClient diverts every every'th read to the next segment's
// serving client over the shard group's delivery API, paying the pair's
// delivery floor each way — the megascale cross-segment read. Other verbs
// stay local.
type remoteReadClient struct {
	kv.Client
	src, dst *sim.Shard
	server   kv.Client // the destination segment's client; used only on its shard
	remote   *int64    // cross-segment reads, owned by the source shard
	every, n int
}

type remoteReply struct {
	rec kv.Record
	err error
}

func (c *remoteReadClient) Read(p *sim.Proc, key kv.Key, fields []string) (kv.Record, error) {
	c.n++
	if c.every <= 0 || c.n%c.every != 0 {
		return c.Client.Read(p, key, fields)
	}
	*c.remote++
	g, srcID, dstID := c.src.Group(), c.src.ID(), c.dst.ID()
	fut := sim.NewFuture[remoteReply](c.src.Kernel())
	server := c.server
	c.src.Send(dstID, g.Floor(srcID, dstID), func(ds *sim.Shard) {
		// Delivery runs in event context and must not block: serve the
		// read from a fresh process on the destination shard, then ship
		// the reply home, where the future completes on the source shard.
		ds.Kernel().Go("bench-remote-read", func(rp *sim.Proc) {
			rec, err := server.Read(rp, key, fields)
			ds.Send(srcID, g.Floor(dstID, srcID), func(*sim.Shard) { fut.Set(remoteReply{rec, err}) })
		})
	})
	r := fut.Await(p)
	return r.rec, r.err
}
