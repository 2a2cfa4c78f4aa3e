// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// In-network approximate query processing (Section 9, made distributed).
//
// "One category of problems is to provide approximate answers to range
// queries with both spatial and temporal constraints ... the sensors can
// estimate the density model for the observations ... and answer the
// queries based on the estimated model."
//
// The flow is TAG-style (the system the paper built its simulator on):
// a query is injected at any aggregator, disseminated down the tree, each
// leaf answers *from its local density model* — no raw data moves — and
// partial aggregates are combined hop by hop on the way back up. Spatial
// selection falls out of the tree: inject at the leader of the region of
// interest. Each aggregator waits for its children up to a deadline, so a
// lossy radio degrades an answer's support count instead of wedging it.

#ifndef SENSORD_CORE_QUERY_PROCESSING_H_
#define SENSORD_CORE_QUERY_PROCESSING_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/config.h"
#include "core/density_model.h"
#include "net/network.h"
#include "net/node.h"
#include "net/protocol.h"
#include "util/math_utils.h"
#include "util/rng.h"

namespace sensord {

/// A resolved query.
struct QueryAnswer {
  uint32_t id = 0;
  double value = 0.0;        ///< the requested aggregate
  double support_count = 0;  ///< estimated values inside the box
  uint32_t leaves_reporting = 0;  ///< leaves whose answers arrived in time
};

/// Invoked at the injection node when a query resolves.
using QueryCallback = std::function<void(const QueryAnswer&)>;

/// A leaf sensor that maintains a density model of its own stream and
/// answers queries from it.
class QuerySensorNode : public Node {
 public:
  QuerySensorNode(const DensityModelConfig& config, Rng rng);

  void OnReading(const Point& value) override;
  void HandleMessage(const Message& msg) override;

  const DensityModel& model() const { return model_; }

 private:
  DensityModel model_;
};

/// An interior node that disseminates queries down and combines partial
/// answers up. The node where a query is injected resolves it and invokes
/// the callback.
class QueryAggregatorNode : public Node {
 public:
  /// `response_deadline`: how long to wait for children (seconds) before
  /// resolving with whatever partials arrived.
  explicit QueryAggregatorNode(double response_deadline = 1.0);

  /// Starts a query from this node over its subtree. `callback` fires when
  /// the query resolves (after all children answered or the deadline
  /// passed). Pre: node is registered with a simulator.
  void InjectQuery(const AggregateQuery& query, QueryCallback callback);

  void HandleMessage(const Message& msg) override;

 private:
  struct PendingQuery {
    AggregateQuery query;
    QueryPartialPayload accumulated;
    uint32_t awaiting = 0;      // children yet to answer
    bool local_origin = false;  // resolve here (vs forward up)
    QueryCallback callback;
    bool resolved = false;
  };

  void Disseminate(const AggregateQuery& query, bool local_origin,
                   QueryCallback callback);
  void Accumulate(PendingQuery* pending, const QueryPartialPayload& part);
  void Resolve(uint32_t query_id);

  double response_deadline_;
  std::map<uint32_t, PendingQuery> pending_;
};

/// Computes a leaf's partial answer from its model — exposed for tests. A
/// query whose box is not model.config().dimensions wide, or a kAverage
/// whose average_dim is not an axis of the model, gets the unready answer:
/// count 0, one leaf reporting.
QueryPartialPayload AnswerFromModel(const DensityModel& model,
                                    const AggregateQuery& query);

/// Folds a resolved accumulation into the final answer — exposed for tests.
QueryAnswer FinalizeAnswer(const AggregateQuery& query,
                           const QueryPartialPayload& accumulated);

}  // namespace sensord

#endif  // SENSORD_CORE_QUERY_PROCESSING_H_
