// Umbrella header for the venom::ops operator layer.
//
//   #include "ops/ops.hpp"
//
//   venom::ops::ExecContext ctx;                        // pool + caches
//   auto c = venom::ops::matmul(                        // dispatched SpMM
//       venom::ops::MatmulArgs::make(a_vnm, b), ctx);
//
// See matmul.hpp for the backend interface / registry and context.hpp
// for the execution-context resources.
#pragma once

#include "ops/context.hpp"
#include "ops/matmul.hpp"
