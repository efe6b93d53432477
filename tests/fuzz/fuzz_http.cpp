// Fuzz target: svc/http request parsing as `cloudwf serve` and the pull
// coordinator run it. svc::EventLoop appends whatever each recv() returned
// to the connection's buffer, runs parse_http_request, consumes a parsed
// request and parses again (pipelining), stops at the first rejection, and
// answers a request still incomplete at end of stream with a 400. This
// target replays that loop over the input delivered in one piece and cut
// into chunks; the cut points come from a generator seeded with a hash of
// the input, so every mutation also moves the cuts.
//
// Properties: the loop terminates and never crashes; ok requests respect
// the configured limits, have a method and a target, and carry lower-cased
// header names; every rejection carries an error text; parse_request_head
// fails gracefully on the raw input; and the sequence of outcomes (each
// request, then how the stream ended) is the same however the input was
// cut.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "svc/http.hpp"
#include "util/rng.hpp"

namespace {

using namespace cloudwf::svc;

/// One request (method, target, version, headers, body) or one rejection,
/// rendered so two runs can be compared.
std::string render(const HttpRequest& request) {
  std::string out =
      request.method + ' ' + request.target + ' ' + request.version + '\n';
  for (const auto& [name, value] : request.headers)
    out += name + ": " + value + '\n';
  return out + request.body;
}

void check_request(const HttpRequest& request, const HttpLimits& limits) {
  if (request.body.size() > limits.max_body_bytes) __builtin_trap();
  if (request.method.empty() || request.target.empty()) __builtin_trap();
  // Header names were lower-cased and deduplicated by the parser.
  for (const auto& [name, value] : request.headers) {
    (void)value;
    for (const char c : name)
      if (c >= 'A' && c <= 'Z') __builtin_trap();
  }
  (void)request.keep_alive();
}

/// Serves `input` the way EventLoop::process_input does, delivering it in
/// chunks of 1..max_chunk bytes drawn from `cuts` (the whole input at once
/// when max_chunk is 0). Returns the outcome log.
std::vector<std::string> serve(std::string_view input,
                               const HttpLimits& limits,
                               cloudwf::util::Rng& cuts,
                               std::size_t max_chunk) {
  std::vector<std::string> log;
  std::string buffer;
  std::size_t off = 0;
  while (off < input.size()) {
    const std::size_t n =
        max_chunk == 0 ? input.size() : 1 + cuts.below(max_chunk);
    const std::size_t take = std::min(n, input.size() - off);
    buffer.append(input.substr(off, take));
    off += take;
    for (;;) {
      ParseResult parsed = parse_http_request(buffer, limits);
      if (parsed.status == ParseStatus::need_more) break;
      if (parsed.status != ParseStatus::ok) {
        if (parsed.error.empty()) __builtin_trap();
        log.push_back("rejected " +
                      std::to_string(static_cast<int>(parsed.status)) + ' ' +
                      parsed.error);
        return log;
      }
      if (parsed.consumed == 0 || parsed.consumed > buffer.size())
        __builtin_trap();
      check_request(parsed.request, limits);
      log.push_back(render(parsed.request));
      buffer.erase(0, parsed.consumed);
    }
  }
  // End of stream: a partial request left in the buffer is the loop's 400.
  log.push_back(buffer.empty() ? "closed" : "closed mid-request");
  return log;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Tight limits keep the fuzzer fast and make the too_large paths reachable
  // with small inputs.
  HttpLimits limits;
  limits.max_header_bytes = 1024;
  limits.max_body_bytes = 4096;

  const std::string_view input(reinterpret_cast<const char*>(data), size);
  std::uint64_t seed = 0xcbf29ce484222325ULL;  // FNV-1a of the input
  for (const char c : input) {
    seed ^= static_cast<unsigned char>(c);
    seed *= 0x100000001b3ULL;
  }
  cloudwf::util::Rng cuts(seed);

  const std::vector<std::string> whole = serve(input, limits, cuts, 0);
  for (const std::size_t max_chunk : {std::size_t{7}, std::size_t{300}})
    if (serve(input, limits, cuts, max_chunk) != whole) __builtin_trap();

  // Also hit the head parser directly with the raw input (it must fail
  // gracefully on inputs the incremental parser would never hand it).
  std::string error;
  (void)parse_request_head(input, &error);
  return 0;
}
