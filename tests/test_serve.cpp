// rapids serve: job-line parsing, the concurrent batch driver, and the
// contract that a served job's artifacts are byte-identical to the
// equivalent one-shot flow.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "io/blif_writer.hpp"
#include "serve/serve.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(Serve, ParsesFullJobLine) {
  const ServeJob j = parse_serve_job(
      "job1 c432 mode=gsg seed=7 effort=2.5 iters=3 threads=2 verify=0 "
      "out=a.blif metrics=m.json provenance=p.json",
      0);
  EXPECT_EQ(j.id, "job1");
  EXPECT_EQ(j.circuit, "c432");
  EXPECT_EQ(j.mode, OptMode::Gsg);
  EXPECT_EQ(j.seed, 7u);
  EXPECT_DOUBLE_EQ(j.effort, 2.5);
  EXPECT_EQ(j.iters, 3);
  EXPECT_EQ(j.threads, 2);
  EXPECT_FALSE(j.verify);
  EXPECT_EQ(j.out_blif, "a.blif");
  EXPECT_EQ(j.out_metrics, "m.json");
  EXPECT_EQ(j.out_provenance, "p.json");
}

TEST(Serve, DefaultsMirrorOneShotFlow) {
  const ServeJob j = parse_serve_job("j c499", 0);
  const FlowOptions flow_defaults;
  EXPECT_EQ(j.mode, OptMode::GsgPlusGS);
  EXPECT_EQ(j.seed, flow_defaults.placer.seed);
  EXPECT_DOUBLE_EQ(j.effort, flow_defaults.placer.effort);
  EXPECT_EQ(j.iters, flow_defaults.opt.max_iterations);
  EXPECT_EQ(j.threads, flow_defaults.opt.threads);
  EXPECT_TRUE(j.verify);
  EXPECT_TRUE(j.out_blif.empty());
}

TEST(Serve, RejectsMalformedJobLines) {
  EXPECT_THROW(parse_serve_job("only-an-id", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt bogus-token", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt nope=1", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt seed=notanumber", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt mode=frobnicate", 0), InputError);
  EXPECT_THROW(parse_serve_job("id ckt threads=0", 0), InputError);
}

TEST(Serve, RejectsMalformedNumbers) {
  // Every numeric key must parse whole, finite and in range.
  for (const char* line :
       {"id ckt threads=2x", "id ckt effort=nan", "id ckt effort=-1", "id ckt iters=-1",
        "id ckt seed=-3", "id ckt seed=7q", "id ckt threads=", "id ckt effort=inf"}) {
    EXPECT_THROW(parse_serve_job(line, 0), InputError) << line;
  }
}

TEST(ServeSlow, BatchJobsMatchOneShotFlows) {
  const std::string dir = ::testing::TempDir();
  std::vector<ServeJob> jobs = {
      parse_serve_job("sj1 c432 seed=5 effort=1 iters=2 threads=2 out=" + dir +
                          "sj1.blif metrics=" + dir + "sj1.metrics.json",
                      0),
      parse_serve_job("sj2 c499 seed=9 effort=1 iters=2 out=" + dir +
                          "sj2.blif provenance=" + dir + "sj2.prov.json",
                      1),
  };
  ServeOptions options;
  options.max_concurrent = 2;
  const std::vector<ServeJobResult> results = serve_batch(jobs, options);
  ASSERT_EQ(results.size(), 2u);
  for (const ServeJobResult& r : results) {
    EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    EXPECT_TRUE(r.verified) << r.id;
    EXPECT_GT(r.initial_delay, 0.0) << r.id;
  }

  // Reference: the same flows through the flow API directly (what the
  // one-shot CLI runs), on the process-default context — the served BLIF
  // must match byte for byte.
  for (const ServeJob& job : jobs) {
    FlowOptions options_ref;
    options_ref.placer.seed = job.seed;
    options_ref.placer.effort = job.effort;
    options_ref.opt.max_iterations = job.iters;
    options_ref.opt.threads = job.threads;
    PreparedCircuit prepared =
        prepare_benchmark(job.circuit, lib035(), options_ref);
    const ModeRun run =
        run_mode(std::move(prepared), lib035(), job.mode, options_ref);
    ASSERT_TRUE(run.verified) << job.id;
    std::ostringstream blif;
    write_blif(run.optimized, blif, job.circuit);
    EXPECT_EQ(read_file(dir + job.id + ".blif"), blif.str()) << job.id;
  }

  // The per-session JSON artifacts are keyed by the job's session id.
  EXPECT_NE(read_file(dir + "sj1.metrics.json").find("\"session.id\": \"sj1\""),
            std::string::npos);
  EXPECT_NE(read_file(dir + "sj2.prov.json").find("\"session\": \"sj2\""),
            std::string::npos);
}

TEST(ServeSlow, LoopProcessesStreamUntilQuit) {
  std::istringstream in(
      "# comment lines and blanks are skipped\n"
      "\n"
      "not-enough-tokens\n"
      "ok1 c432 effort=1 iters=1\n"
      "quit\n"
      "never c499\n");
  std::ostringstream out;
  ServeOptions options;
  options.max_concurrent = 2;
  const int failed = serve_loop(in, out, options);
  EXPECT_EQ(failed, 1);  // the parse error; ok1 succeeded
  const std::string log = out.str();
  EXPECT_NE(log.find("[serve] ok1:"), std::string::npos) << log;
  EXPECT_NE(log.find("1 job completed, 1 failed"), std::string::npos) << log;
  EXPECT_EQ(log.find("never"), std::string::npos) << log;  // after quit
}

}  // namespace
}  // namespace rapids
