#include "antidope/pdf.hpp"

#include <utility>

namespace dope::antidope {

PdfRouter::PdfRouter(SuspectList suspects,
                     std::vector<net::Backend*> suspect_pool,
                     std::vector<net::Backend*> innocent_pool)
    : suspects_(std::move(suspects)),
      suspect_lb_(net::LbPolicy::kLeastLoaded, std::move(suspect_pool)),
      innocent_lb_(net::LbPolicy::kLeastLoaded, std::move(innocent_pool)) {}

void PdfRouter::bind_spans(sim::Engine* engine, obs::SpanTracer* spans) {
  suspect_lb_.bind_spans(engine, spans, "suspect");
  innocent_lb_.bind_spans(engine, spans, "innocent");
}

void PdfRouter::update_suspects(SuspectList suspects) {
  suspects_ = std::move(suspects);
}

net::Backend* PdfRouter::route(const workload::Request& request) {
  if (is_suspect(request)) {
    ++suspect_routed_;
    return suspect_lb_.select(request);
  }
  ++innocent_routed_;
  net::Backend* b = innocent_lb_.select(request);
  if (b == nullptr) {
    // Innocent pool drained/unavailable: degrade into the suspect pool
    // rather than dropping legitimate work.
    b = suspect_lb_.select(request);
  }
  return b;
}

}  // namespace dope::antidope
