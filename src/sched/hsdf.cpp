#include "sched/hsdf.hpp"

#include <map>
#include <stdexcept>

namespace spi::sched {

HsdfGraph hsdf_expand(const df::Graph& g, const df::Repetitions& reps) {
  if (!g.is_sdf()) throw std::logic_error("hsdf_expand: graph is not pure SDF");
  if (!reps.consistent) throw std::logic_error("hsdf_expand: inconsistent graph");

  HsdfGraph out;
  out.first_task.reserve(g.actor_count());
  for (std::size_t a = 0; a < g.actor_count(); ++a) {
    const auto id = static_cast<df::ActorId>(a);
    out.first_task.push_back(static_cast<std::int32_t>(out.tasks.size()));
    const std::int64_t q = reps.of(id);
    for (std::int64_t f = 0; f < q; ++f) {
      TaskNode node;
      node.actor = id;
      node.firing = static_cast<std::int32_t>(f);
      node.exec_cycles = g.actor(id).exec_cycles;
      node.name = q == 1 ? g.actor(id).name
                         : g.actor(id).name + "#" + std::to_string(f);
      out.tasks.push_back(std::move(node));
    }
  }

  // For each SDF edge, trace every token produced during one iteration to
  // the firing that consumes it; merge the edge's parallel arcs keeping
  // the min delay. Arcs of different edges stay apart even between the
  // same two tasks: each interprocessor edge needs its own channel.
  std::map<std::pair<std::int32_t, std::int32_t>, std::size_t> arc_index;
  for (std::size_t eid = 0; eid < g.edge_count(); ++eid) {
    arc_index.clear();
    const df::Edge& e = g.edge(static_cast<df::EdgeId>(eid));
    const std::int64_t p = e.prod.value();
    const std::int64_t c = e.cons.value();
    const std::int64_t q_src = reps.of(e.src);
    const std::int64_t q_snk = reps.of(e.snk);
    for (std::int64_t i = 0; i < q_src; ++i) {
      for (std::int64_t j = 0; j < p; ++j) {
        const std::int64_t token = e.delay + i * p + j;  // absolute token index
        const std::int64_t consumer_firing = token / c;  // global firing index of snk
        const std::int64_t delay = consumer_firing / q_snk;    // iterations crossed
        const std::int64_t firing_in_iter = consumer_firing % q_snk;
        const std::int32_t src_task = out.task_of(e.src, static_cast<std::int32_t>(i));
        const std::int32_t snk_task = out.task_of(e.snk, static_cast<std::int32_t>(firing_in_iter));
        const auto key = std::make_pair(src_task, snk_task);
        auto it = arc_index.find(key);
        if (it == arc_index.end()) {
          arc_index.emplace(key, out.arcs.size());
          out.arcs.push_back(TaskArc{src_task, snk_task, delay, static_cast<df::EdgeId>(eid)});
        } else if (delay < out.arcs[it->second].delay) {
          out.arcs[it->second].delay = delay;
        }
      }
    }
  }
  return out;
}

}  // namespace spi::sched
