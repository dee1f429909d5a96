#include "core/pipeline.h"

#include <algorithm>
#include <filesystem>

#include "core/checkpoint.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/serial.h"
#include "util/string_util.h"

namespace hsconas::core {

util::Json pipeline_report_json(const PipelineResult& result,
                                const SearchSpace& space) {
  util::Json report = util::Json::object();
  report["winner"] = result.best_arch.to_json(space);
  report["winner_string"] = result.best_arch.to_string(space);

  util::Json metrics = util::Json::object();
  metrics["score"] = result.best_score;
  metrics["accuracy"] = result.best_accuracy;
  metrics["predicted_latency_ms"] = result.predicted_latency_ms;
  metrics["measured_latency_ms"] = result.measured_latency_ms;
  metrics["constraint_ms"] = result.constraint_ms;
  report["metrics"] = std::move(metrics);

  util::Json shrink = util::Json::object();
  shrink["log10_space_initial"] = result.log10_space_initial;
  shrink["log10_space_after_stage1"] = result.log10_space_after_stage1;
  shrink["log10_space_after_stage2"] = result.log10_space_after_stage2;
  util::Json decisions = util::Json::array();
  for (const auto* stage : {&result.stage1_decisions,
                            &result.stage2_decisions}) {
    for (const auto& d : *stage) {
      util::Json entry = util::Json::object();
      entry["layer"] = d.layer;
      entry["chosen_op"] = space.op_name(d.chosen_op);
      util::Json quality = util::Json::array();
      for (double q : d.quality) quality.push_back(q);
      entry["subspace_quality"] = std::move(quality);
      decisions.push_back(std::move(entry));
    }
  }
  shrink["decisions"] = std::move(decisions);
  report["space_shrinking"] = std::move(shrink);

  util::Json generations = util::Json::array();
  for (const auto& g : result.evolution.per_generation) {
    util::Json entry = util::Json::object();
    entry["generation"] = g.generation;
    entry["best_score"] = g.best_score;
    entry["mean_score"] = g.mean_score;
    entry["best_latency_ms"] = g.best_latency_ms;
    entry["best_accuracy"] = g.best_accuracy;
    generations.push_back(std::move(entry));
  }
  report["evolution"] = std::move(generations);

  util::Json training = util::Json::array();
  for (const auto& e : result.train_history) {
    util::Json entry = util::Json::object();
    entry["epoch"] = e.epoch;
    entry["loss"] = e.loss;
    entry["top1"] = e.top1;
    entry["lr"] = e.lr;
    training.push_back(std::move(entry));
  }
  report["supernet_training"] = std::move(training);
  return report;
}

Pipeline::Pipeline(PipelineConfig config)
    : config_(std::move(config)),
      space_(config_.space),
      device_(config_.custom_device ? *config_.custom_device
                                    : hwsim::device_by_name(config_.device)) {
  if (config_.constraint_ms <= 0.0) {
    if (config_.custom_device) {
      throw InvalidArgument(
          "Pipeline: constraint_ms is required with a custom device");
    }
    config_.constraint_ms = hwsim::default_constraint_ms(config_.device);
  }
  if (config_.checkpoint_every < 1) {
    throw InvalidArgument("Pipeline: checkpoint_every must be >= 1");
  }
  // Config::batch == 0 means "device default"; an explicit batch — 1
  // included — is honored as given. The sentinel is resolved inside
  // LatencyModel. The model itself is built (or restored from a
  // checkpoint) lazily in run().
  latency_cfg_ = config_.latency;
  latency_cfg_.seed ^= config_.seed;
}

const LatencyModel& Pipeline::latency_model() const {
  if (latency_model_ == nullptr) {
    throw Error("Pipeline::latency_model: not built yet — call run() first");
  }
  return *latency_model_;
}

std::string Pipeline::checkpoint_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "pipeline.ckpt").string();
}

namespace {

// v2: evolution candidates carry the Arch::quant gene and the latency
// section may hold an int8 LUT; meta grew the search_quantization flag.
constexpr std::uint32_t kPipelineStateVersion = 2;
constexpr std::size_t kMaxQualityEntries = 4096;
constexpr std::size_t kMaxDecisions = 4096;

void write_decisions(
    util::ByteWriter& out,
    const std::vector<SpaceShrinker::LayerDecision>& decisions) {
  out.u64(decisions.size());
  for (const SpaceShrinker::LayerDecision& d : decisions) {
    out.i32(d.layer);
    out.i32(d.chosen_op);
    out.vec_f64(d.quality);
    out.i32(d.subspaces_evaluated);
  }
}

std::vector<SpaceShrinker::LayerDecision> read_decisions(
    util::ByteReader& in) {
  const std::size_t n = static_cast<std::size_t>(in.u64());
  if (n > kMaxDecisions) {
    throw Error("pipeline checkpoint: implausible shrink decision count");
  }
  std::vector<SpaceShrinker::LayerDecision> decisions;
  decisions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SpaceShrinker::LayerDecision d;
    d.layer = in.i32();
    d.chosen_op = in.i32();
    d.quality = in.vec_f64(kMaxQualityEntries);
    d.subspaces_evaluated = in.i32();
    decisions.push_back(std::move(d));
  }
  return decisions;
}

}  // namespace

PipelineResult Pipeline::run(const data::SyntheticDataset* dataset) {
  HSCONAS_TRACE_SCOPE("pipeline.run");
  PipelineResult result;
  result.constraint_ms = config_.constraint_ms;
  result.log10_space_initial = space_.log10_size();

  const Objective objective{config_.beta, config_.constraint_ms};
  const int L = space_.num_layers();
  const int per_stage =
      std::clamp(config_.shrink_layers_per_stage, 0, L / 2);

  // ---- accuracy back-end ---------------------------------------------------
  std::unique_ptr<Supernet> supernet;
  std::unique_ptr<SupernetTrainer> trainer;
  std::unique_ptr<AccuracySurrogate> surrogate;
  AccuracyFn accuracy;

  if (config_.use_surrogate) {
    surrogate = std::make_unique<AccuracySurrogate>(space_,
                                                    config_.surrogate);
    accuracy = score_each(
        [&s = *surrogate](const Arch& arch) { return s.accuracy(arch); });
  } else {
    if (dataset == nullptr) {
      throw InvalidArgument(
          "Pipeline: proxy mode requires a dataset (or set use_surrogate)");
    }
    supernet = std::make_unique<Supernet>(space_, config_.seed ^ 0x5e7ull);
    TrainConfig tc = config_.train;
    tc.seed ^= config_.seed;
    tc.verbose = config_.verbose;
    trainer = std::make_unique<SupernetTrainer>(*supernet, *dataset, tc);
    accuracy = [&t = *trainer, n = config_.eval_batches](
                   const std::vector<Arch>& archs) {
      return t.evaluate(archs, n);
    };
  }

  // ---- resume: load checkpointed state before building dependents ----------
  const bool checkpointing = !config_.checkpoint_dir.empty();
  const std::string ckpt_path =
      checkpointing ? checkpoint_path(config_.checkpoint_dir) : std::string();

  PipelinePhase phase = PipelinePhase::kInitialTrain;
  int epochs_done = 0;  // completed epochs within the current train phase
  std::unique_ptr<CheckpointReader> restore;

  if (checkpointing && config_.resume &&
      std::filesystem::exists(ckpt_path)) {
    HSCONAS_TRACE_SCOPE("pipeline.restore");
    restore = std::make_unique<CheckpointReader>(ckpt_path);

    util::ByteReader meta(restore->section("meta"));
    const std::uint32_t state_version = meta.u32();
    if (state_version != kPipelineStateVersion) {
      throw Error("pipeline checkpoint: state version " +
                  std::to_string(state_version) + ", expected " +
                  std::to_string(kPipelineStateVersion));
    }
    const std::uint64_t seed = meta.u64();
    const std::string device = meta.str();
    const bool use_surrogate = meta.u8() != 0;
    const int ckpt_layers = meta.i32();
    const int ckpt_per_stage = meta.i32();
    const int ckpt_initial_epochs = meta.i32();
    const int ckpt_tune_epochs = meta.i32();
    const int ckpt_generations = meta.i32();
    const int ckpt_population = meta.i32();
    const double ckpt_constraint = meta.f64();
    const bool ckpt_quant = meta.u8() != 0;
    if (seed != config_.seed || device != config_.device ||
        use_surrogate != config_.use_surrogate || ckpt_layers != L ||
        ckpt_per_stage != per_stage ||
        ckpt_initial_epochs != config_.initial_epochs ||
        ckpt_tune_epochs != config_.tune_epochs ||
        ckpt_generations != config_.evolution.generations ||
        ckpt_population != config_.evolution.population ||
        ckpt_constraint != config_.constraint_ms ||
        ckpt_quant != config_.space.search_quantization) {
      throw Error(
          "pipeline checkpoint: run configuration does not match the "
          "checkpointed run in " + ckpt_path);
    }
    const int phase_value = meta.i32();
    if (phase_value < static_cast<int>(PipelinePhase::kInitialTrain) ||
        phase_value > static_cast<int>(PipelinePhase::kEvolution)) {
      throw Error("pipeline checkpoint: invalid phase " +
                  std::to_string(phase_value));
    }
    phase = static_cast<PipelinePhase>(phase_value);
    epochs_done = meta.i32();
    meta.expect_done();

    util::ByteReader space_state(restore->section("space"));
    space_.import_shrink_state(space_state);
    space_state.expect_done();

    util::ByteReader lat_state(restore->section("latency"));
    latency_model_ =
        LatencyModel::restore(space_, device_, latency_cfg_, lat_state);
    lat_state.expect_done();

    util::ByteReader result_state(restore->section("result"));
    result.stage1_decisions = read_decisions(result_state);
    result.stage2_decisions = read_decisions(result_state);
    result.log10_space_after_stage1 = result_state.f64();
    result.log10_space_after_stage2 = result_state.f64();
    result_state.expect_done();

    if (trainer) {
      util::ByteReader trainer_state(restore->section("trainer"));
      trainer->import_state(trainer_state);
      trainer_state.expect_done();
      util::ByteReader params(restore->section("params"));
      read_parameters_payload(supernet->parameters(), params);
    }
    if (config_.verbose) {
      HSCONAS_LOG_INFO << "resumed from " << ckpt_path << " at phase "
                       << phase_value << " (+" << epochs_done << " epochs)";
    }
  } else {
    HSCONAS_TRACE_SCOPE("pipeline.latency_model");
    latency_model_ =
        std::make_unique<LatencyModel>(space_, device_, latency_cfg_);
  }

  // ---- search components (restored state flows in below) -------------------
  // Both hand each batch of candidates to `accuracy` in one call, which
  // scores it across the thread pool. The surrogate is a pure function of
  // the arch; the supernet is put in score mode at the start of each
  // scoring phase (enter_scoring), where its forwards write no module
  // state.
  SpaceShrinker::Config shrink_cfg = config_.shrink;
  shrink_cfg.seed ^= config_.seed;
  SpaceShrinker shrinker(space_, accuracy, *latency_model_, objective,
                         shrink_cfg);
  EvolutionSearch::Config evo_cfg = config_.evolution;
  evo_cfg.seed ^= config_.seed;
  EvolutionSearch search(space_, accuracy, *latency_model_, objective,
                         evo_cfg);

  if (restore) {
    util::ByteReader shrinker_state(restore->section("shrinker"));
    shrinker.import_state(shrinker_state);
    shrinker_state.expect_done();
    util::ByteReader evo_state(restore->section("evolution"));
    search.import_state(evo_state);
    evo_state.expect_done();
    restore.reset();
  }

  // ---- snapshotting --------------------------------------------------------
  int snapshot_index = 0;
  const auto save_snapshot = [&](PipelinePhase at_phase,
                                 int at_epochs_done) {
    if (!checkpointing) return;
    HSCONAS_TRACE_SCOPE("pipeline.snapshot");
    CheckpointWriter writer;

    util::ByteWriter meta;
    meta.u32(kPipelineStateVersion);
    meta.u64(config_.seed);
    meta.str(config_.device);
    meta.u8(config_.use_surrogate ? 1 : 0);
    meta.i32(L);
    meta.i32(per_stage);
    meta.i32(config_.initial_epochs);
    meta.i32(config_.tune_epochs);
    meta.i32(config_.evolution.generations);
    meta.i32(config_.evolution.population);
    meta.f64(config_.constraint_ms);
    meta.u8(config_.space.search_quantization ? 1 : 0);
    meta.i32(static_cast<int>(at_phase));
    meta.i32(at_epochs_done);
    writer.add_section("meta", meta.take());

    util::ByteWriter space_state;
    space_.export_shrink_state(space_state);
    writer.add_section("space", space_state.take());

    util::ByteWriter lat_state;
    latency_model_->export_state(lat_state);
    writer.add_section("latency", lat_state.take());

    util::ByteWriter result_state;
    write_decisions(result_state, result.stage1_decisions);
    write_decisions(result_state, result.stage2_decisions);
    result_state.f64(result.log10_space_after_stage1);
    result_state.f64(result.log10_space_after_stage2);
    writer.add_section("result", result_state.take());

    util::ByteWriter shrinker_state;
    shrinker.export_state(shrinker_state);
    writer.add_section("shrinker", shrinker_state.take());

    util::ByteWriter evo_state;
    search.export_state(evo_state);
    writer.add_section("evolution", evo_state.take());

    if (trainer) {
      util::ByteWriter trainer_state;
      trainer->export_state(trainer_state);
      writer.add_section("trainer", trainer_state.take());
      writer.add_section("params",
                         write_parameters_payload(supernet->parameters()));
    }
    writer.save(ckpt_path);
    if (config_.on_snapshot) config_.on_snapshot(snapshot_index);
    ++snapshot_index;
  };

  if (checkpointing) {
    std::filesystem::create_directories(config_.checkpoint_dir);
  }

  // Mid-phase training snapshots: after every checkpoint_every-th epoch,
  // except the phase's last (the phase-transition snapshot covers it).
  const auto epoch_snapshots = [&](PipelinePhase at_phase, int total) {
    return [&, at_phase, total](int e, const EpochStats&) {
      const int done = e + 1;
      if (done < total && done % config_.checkpoint_every == 0) {
        save_snapshot(at_phase, done);
      }
    };
  };

  // Training steps put the supernet in train mode on every step; each
  // scoring phase switches it to score mode once, before it fans out.
  const auto enter_scoring = [&] {
    if (supernet) supernet->set_mode(nn::Mode::kScore);
  };

  // ---- phase machine (Fig. 1 order; each arm falls through to the next) ----
  if (phase == PipelinePhase::kInitialTrain) {
    if (trainer) {
      if (config_.verbose) {
        HSCONAS_LOG_INFO << "training supernet for "
                         << config_.initial_epochs << " epochs ("
                         << supernet->param_count() << " params)";
      }
      HSCONAS_TRACE_SCOPE("pipeline.supernet_train");
      trainer->run(config_.initial_epochs, -1.0, epochs_done,
                   epoch_snapshots(phase, config_.initial_epochs));
    }
    phase = PipelinePhase::kShrinkStage1;
    epochs_done = 0;
    save_snapshot(phase, 0);
  }

  if (per_stage == 0) {
    // No shrink stages: the space is already final.
    result.log10_space_after_stage1 = result.log10_space_initial;
    result.log10_space_after_stage2 = result.log10_space_initial;
    if (phase != PipelinePhase::kEvolution) {
      phase = PipelinePhase::kEvolution;
    }
  }

  if (phase == PipelinePhase::kShrinkStage1) {
    HSCONAS_TRACE_SCOPE("pipeline.space_shrinking");
    enter_scoring();
    result.stage1_decisions = shrinker.shrink_stage(L - 1, per_stage);
    result.log10_space_after_stage1 = space_.log10_size();
    phase = PipelinePhase::kTuneStage1;
    epochs_done = 0;
    save_snapshot(phase, 0);
  }

  if (phase == PipelinePhase::kTuneStage1) {
    if (trainer) {
      HSCONAS_TRACE_SCOPE("pipeline.tune_stage1");
      trainer->run(config_.tune_epochs, config_.tune_lr_stage1, epochs_done,
                   epoch_snapshots(phase, config_.tune_epochs));
    }
    phase = PipelinePhase::kShrinkStage2;
    epochs_done = 0;
    save_snapshot(phase, 0);
  }

  if (phase == PipelinePhase::kShrinkStage2) {
    HSCONAS_TRACE_SCOPE("pipeline.space_shrinking");
    enter_scoring();
    result.stage2_decisions =
        shrinker.shrink_stage(L - 1 - per_stage, per_stage);
    result.log10_space_after_stage2 = space_.log10_size();
    phase = PipelinePhase::kTuneStage2;
    epochs_done = 0;
    save_snapshot(phase, 0);
  }

  if (phase == PipelinePhase::kTuneStage2) {
    if (trainer) {
      HSCONAS_TRACE_SCOPE("pipeline.tune_stage2");
      trainer->run(config_.tune_epochs, config_.tune_lr_stage2, epochs_done,
                   epoch_snapshots(phase, config_.tune_epochs));
    }
    phase = PipelinePhase::kEvolution;
    epochs_done = 0;
    save_snapshot(phase, 0);
  }

  // ---- evolutionary search (§III-D) ----------------------------------------
  {
    HSCONAS_TRACE_SCOPE("pipeline.evolution");
    enter_scoring();
    result.evolution = search.run([&](int generation) {
      // generation == -1: initial population scored. Always snapshot that
      // (it is the most expensive single step to lose), then every
      // checkpoint_every-th completed generation.
      if (generation == -1 ||
          (generation + 1) % config_.checkpoint_every == 0) {
        save_snapshot(PipelinePhase::kEvolution, 0);
      }
    });
  }

  if (trainer) result.train_history = trainer->history();

  result.best_arch = result.evolution.best.arch;
  result.best_score = result.evolution.best.score;
  result.best_accuracy = result.evolution.best.accuracy;
  result.predicted_latency_ms = result.evolution.best.latency_ms;
  result.measured_latency_ms = latency_model_->measure_ms(result.best_arch);

  if (config_.verbose) {
    HSCONAS_LOG_INFO << "winner: " << result.best_arch.to_string(space_);
    HSCONAS_LOG_INFO << util::format(
        "score %.4f acc %.4f lat %.2fms (measured %.2fms, T %.1fms)",
        result.best_score, result.best_accuracy,
        result.predicted_latency_ms, result.measured_latency_ms,
        result.constraint_ms);
  }
  return result;
}

}  // namespace hsconas::core
