// Umbrella header: the PBIO public API.
//
//   pbio::Context ctx;
//   auto id = ctx.register_format(pbio::native_format("particle", fields,
//                                                     sizeof(Particle)));
//   pbio::Writer w(ctx, channel);
//   w.write(id, &p);                        // NDR: no encode for flat records
//
//   pbio::Reader r(ctx, channel);
//   r.expect(id);
//   auto msg = r.next();
//   const Particle* p = msg.value().view<Particle>().value();  // zero-copy
//
// See README.md for the full tour and DESIGN.md for the architecture.
#pragma once

#include "arch/abi.h"       // modelled ABIs (heterogeneity simulation)
#include "arch/layout.h"    // portable struct specs + layout engine
#include "fmt/format.h"     // format descriptions
#include "fmt/meta.h"       // wire meta-information codec
#include "pbio/context.h"   // Context, Conversion
#include "pbio/encode.h"    // sender-side gather encoding
#include "pbio/message.h"   // received messages
#include "pbio/native.h"    // describing host structs (PBIO_FIELD etc.)
#include "pbio/format_service.h"
#include "pbio/reader.h"
#include "pbio/writer.h"
#include "transport/file.h"
#include "transport/loopback.h"
#include "transport/socket.h"
