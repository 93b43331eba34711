// Umbrella header: the public API of the adaptive-deep-reuse library.
//
// For a guided tour:
//   - core/reuse_conv2d.h     the drop-in conv layer (start here)
//   - core/reuse_config.h     the {L, H, CR, scope} knobs
//   - core/adaptive_controller.h  Strategy 2's runtime controller
//   - core/strategies.h       end-to-end training drivers
//   - models/models.h         CifarNet / AlexNet / VGG-19 builders
//
// Applications that only need the substrate can include the individual
// nn/, tensor/, clustering/ and data/ headers instead.

#ifndef ADR_ADR_H_
#define ADR_ADR_H_

#include "clustering/kmeans.h"
#include "clustering/lsh.h"
#include "core/adaptive_controller.h"
#include "core/clustered_matmul.h"
#include "core/complexity_model.h"
#include "core/parameter_schedule.h"
#include "core/reuse_backward.h"
#include "core/reuse_config.h"
#include "core/reuse_conv2d.h"
#include "core/strategies.h"
#include "core/subvector_clustering.h"
#include "data/dataloader.h"
#include "data/synthetic_images.h"
#include "models/models.h"
#include "nn/checkpoint.h"
#include "nn/gradient_clip.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "util/flags.h"
#include "util/metrics_registry.h"
#include "util/result.h"
#include "util/status.h"
#include "util/trace.h"

#endif  // ADR_ADR_H_
