// Umbrella header for the FG pipeline framework.
//
//   #include "core/fg.hpp"
//
//   fg::PipelineGraph graph;
//   auto& p = graph.add_pipeline({.name = "work", .num_buffers = 4,
//                                 .buffer_bytes = 1 << 16, .rounds = 100});
//   fg::MapStage read("read", [&](fg::Buffer& b) { ...fill b...; return
//                     fg::StageAction::kConvey; });
//   fg::MapStage write("write", [&](fg::Buffer& b) { ...drain b...; return
//                      fg::StageAction::kConvey; });
//   p.add_stage(read);
//   p.add_stage(write);
//   graph.run();
#pragma once

#include "core/buffer.hpp"     // IWYU pragma: export
#include "core/channel.hpp"    // IWYU pragma: export
#include "core/graph.hpp"      // IWYU pragma: export
#include "core/pipeline.hpp"   // IWYU pragma: export
#include "core/plan.hpp"       // IWYU pragma: export
#include "core/queue.hpp"      // IWYU pragma: export
#include "core/runtime.hpp"    // IWYU pragma: export
#include "core/stage.hpp"      // IWYU pragma: export
#include "core/stage_stats.hpp"  // IWYU pragma: export
