#include "layer_trace.h"

#include "src/util/logging.h"

namespace dpc::perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRuntime: return "runtime";
    case Layer::kRecorder: return "recorder";
    case Layer::kMeta: return "meta";
    case Layer::kWal: return "wal";
    case Layer::kNet: return "net";
    case Layer::kBroadcast: return "broadcast";
    case Layer::kCheckpoint: return "checkpoint";
    case Layer::kRecover: return "recover";
    case Layer::kQuery: return "query";
    case Layer::kCount: break;
  }
  return "?";
}

double LayerTotals::SelfSum() const {
  double sum = 0;
  for (double s : self_s) sum += s;
  return sum;
}

void SpanClock::End() {
  DPC_CHECK(!stack_.empty());
  Frame frame = stack_.back();
  stack_.pop_back();
  double dur = SecondsSince(frame.start);
  int l = static_cast<int>(frame.layer);
  totals_.self_s[l] += dur - frame.child_s;
  ++totals_.spans[l];
  if (stack_.empty()) {
    totals_.top_level_s += dur;
  } else {
    stack_.back().child_s += dur;
  }
}

void SpanClock::Reset() {
  DPC_CHECK(stack_.empty()) << "span clock reset with open spans";
  totals_ = LayerTotals{};
}

ProvMeta TimedRecorder::OnInject(NodeId node, const TupleRef& event) {
  Span span(clock_, hook_layer_);
  return inner_->OnInject(node, event);
}

ProvMeta TimedRecorder::OnRuleFired(NodeId node, const Rule& rule,
                                    const TupleRef& event,
                                    const ProvMeta& meta,
                                    const std::vector<TupleRef>& slow,
                                    const TupleRef& head) {
  Span span(clock_, hook_layer_);
  return inner_->OnRuleFired(node, rule, event, meta, slow, head);
}

void TimedRecorder::OnOutput(NodeId node, const TupleRef& output,
                             const ProvMeta& meta) {
  Span span(clock_, hook_layer_);
  inner_->OnOutput(node, output, meta);
}

void TimedRecorder::OnArrival(NodeId node, const TupleRef& tuple,
                              const ProvMeta& meta) {
  Span span(clock_, hook_layer_);
  inner_->OnArrival(node, tuple, meta);
}

bool TimedRecorder::OnSlowInsert(NodeId node, const TupleRef& t) {
  Span span(clock_, hook_layer_);
  return inner_->OnSlowInsert(node, t);
}

void TimedRecorder::OnSlowDelete(NodeId node, const Tuple& t) {
  Span span(clock_, hook_layer_);
  inner_->OnSlowDelete(node, t);
}

void TimedRecorder::OnControlSignal(NodeId node) {
  Span span(clock_, hook_layer_);
  inner_->OnControlSignal(node);
}

void TimedRecorder::SerializeMeta(const ProvMeta& meta, ByteWriter& w) const {
  Span span(clock_, Layer::kMeta);
  inner_->SerializeMeta(meta, w);
}

Result<ProvMeta> TimedRecorder::DeserializeMeta(ByteReader& r) const {
  Span span(clock_, Layer::kMeta);
  return inner_->DeserializeMeta(r);
}

void TimedChannel::SetDeliveryHandler(DeliveryHandler handler) {
  inner_->SetDeliveryHandler(
      [clock = clock_, handler = std::move(handler)](const Message& msg) {
        Span span(clock, Layer::kRuntime);
        handler(msg);
      });
}

void TimedChannel::Send(Message msg) {
  Span span(clock_, Layer::kNet);
  inner_->Send(std::move(msg));
}

void TimedChannel::Broadcast(NodeId from, Message msg) {
  Span span(clock_, Layer::kBroadcast);
  inner_->Broadcast(from, std::move(msg));
}

}  // namespace dpc::perfbench
