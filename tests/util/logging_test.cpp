#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/json.h"
#include "util/logging.h"

namespace hsconas::util {
namespace {

TEST(Logging, LevelThresholdFilters) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold messages must be dropped silently (no crash, no way to
  // observe stderr here — this pins the API contract).
  log_message(LogLevel::kDebug, "dropped");
  log_message(LogLevel::kInfo, "dropped");
  set_log_level(LogLevel::kOff);
  log_message(LogLevel::kError, "dropped too");
  set_log_level(saved);
}

TEST(Logging, StreamMacroBuildsMessage) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kOff);  // keep test output clean
  HSCONAS_LOG_INFO << "x = " << 42 << ", y = " << 1.5;
  set_log_level(saved);
  SUCCEED();
}

TEST(Logging, ParseLogLevel) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_THROW(parse_log_level("verbose"), Error);
}

namespace {
std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(f, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}
}  // namespace

TEST(Logging, JsonlSinkRecordsStructuredFields) {
  const std::string path = testing::TempDir() + "/hsconas_log_sink.jsonl";
  std::remove(path.c_str());
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kInfo);
  set_log_sink(path);

  log_message(LogLevel::kInfo, "plain record");
  log_message(LogLevel::kWarn, "with fields",
              {{"epoch", "3"}, {"loss", "0.42"}});
  (HSCONAS_LOG_INFO << "stream record").kv("layer", 7).kv("op", "mb_k3");
  log_message(LogLevel::kDebug, "below threshold, not sunk");

  clear_log_sink();
  set_log_level(saved);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);  // the debug record was filtered

  // Every line is one standalone JSON object with the expected schema.
  const Json first = Json::parse(lines[0]);
  EXPECT_EQ(first.find("msg")->as_string(), "plain record");
  EXPECT_EQ(first.find("level")->as_string(), "info");
  EXPECT_GE(first.find("ts_s")->as_double(), 0.0);

  const Json second = Json::parse(lines[1]);
  EXPECT_EQ(second.find("level")->as_string(), "warn");
  ASSERT_NE(second.find("fields"), nullptr);
  EXPECT_EQ(second.find("fields")->find("epoch")->as_string(), "3");
  EXPECT_EQ(second.find("fields")->find("loss")->as_string(), "0.42");

  const Json third = Json::parse(lines[2]);
  EXPECT_EQ(third.find("msg")->as_string(), "stream record");
  EXPECT_EQ(third.find("fields")->find("layer")->as_string(), "7");
  EXPECT_EQ(third.find("fields")->find("op")->as_string(), "mb_k3");

  std::remove(path.c_str());
}

TEST(Logging, ConcurrentWritersNeverInterleaveRecords) {
  const std::string path = testing::TempDir() + "/hsconas_log_mt.jsonl";
  std::remove(path.c_str());
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kInfo);
  set_log_sink(path);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        log_message(LogLevel::kInfo, "concurrent",
                    {{"thread", std::to_string(t)},
                     {"i", std::to_string(i)}});
      }
    });
  }
  for (auto& t : threads) t.join();
  clear_log_sink();
  set_log_level(saved);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  for (const std::string& line : lines) {
    const Json record = Json::parse(line);  // throws if torn/interleaved
    EXPECT_EQ(record.find("msg")->as_string(), "concurrent");
  }
  std::remove(path.c_str());
}

TEST(Logging, SinkBadPathThrows) {
  EXPECT_THROW(set_log_sink("/nonexistent_dir_zz/log.jsonl"), Error);
}

}  // namespace
}  // namespace hsconas::util
