package nsim

import "repro/internal/obs"

// Observe attaches the observability layer to the network. trace, if
// non-nil, receives one value-typed event per transmission attempt
// (EvSend), loss (EvDrop), and successful delivery to a live node
// (EvRecv) — semantics chosen so the aggregated trace counts equal the
// accounting fields exactly: sends = TotalSent, drops = TotalDropped,
// recvs = Σ Node.Received.
//
// reg, if non-nil, gains a provider exposing the simulator's
// accounting fields under the "nsim." prefix. The fields themselves
// remain the source of truth — the provider reads them at Snapshot
// time, so an observed run pays nothing extra on the event loop for
// these counters. Names:
//
//	nsim.messages         transmissions attempted (TotalSent)
//	nsim.messages.<kind>  ditto, split by wire kind
//	nsim.bytes            bytes transmitted (TotalBytes)
//	nsim.bytes.<kind>     ditto, split by wire kind
//	nsim.received         deliveries to live nodes (Σ Node.Received)
//	nsim.bytes_in         bytes delivered (Σ Node.BytesIn)
//	nsim.dropped          transmissions lost (TotalDropped)
//	nsim.retries          ARQ re-attempts (TotalRetries)
//	nsim.events           events dispatched by Run
//	nsim.queue_depth      events still queued at snapshot time
//	nsim.queue_hist.*     queue-depth histogram sampled per dispatched
//	                      event (count/sum/max/p50/p95/le_<bound>)
//	nsim.max_node_load    max per-node sent+received (E2 hotspot)
//	nsim.nodes            node count
//	nsim.deaths           nodes dead from energy depletion
//
// Observe may be called at any point before or after Finalize; calling
// it with both arguments nil detaches the trace.
func (nw *Network) Observe(reg *obs.Registry, trace *obs.Trace) {
	nw.trace = trace
	if reg == nil {
		nw.hQueue = nil
		return
	}
	// Event-queue depth, sampled once per dispatched event. Unlike
	// nsim.queue_depth (a point-in-time gauge), the histogram shows the
	// backlog distribution over the whole run.
	nw.hQueue = reg.Histogram("nsim.queue_hist", obs.ExpBuckets(1, 2, 12))
	reg.Provide(func(emit func(name string, v int64)) {
		emit("nsim.messages", nw.TotalSent)
		emit("nsim.bytes", nw.TotalBytes)
		emit("nsim.dropped", nw.TotalDropped)
		emit("nsim.retries", nw.TotalRetries)
		emit("nsim.events", nw.EventsProcessed)
		emit("nsim.queue_depth", int64(nw.Pending()))
		emit("nsim.max_node_load", nw.MaxNodeLoad())
		emit("nsim.nodes", int64(len(nw.nodes)))
		emit("nsim.deaths", nw.Deaths)
		var recv, bytesIn int64
		for _, n := range nw.nodes {
			recv += n.Received
			bytesIn += n.BytesIn
		}
		emit("nsim.received", recv)
		emit("nsim.bytes_in", bytesIn)
		for _, k := range nw.kinds {
			emit("nsim.messages."+k.kind, k.count)
			emit("nsim.bytes."+k.kind, k.bytes)
		}
	})
}
