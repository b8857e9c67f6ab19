// Compile-time detection of the sanitizers that track memory and stacks
// (AddressSanitizer, ThreadSanitizer, MemorySanitizer). GCC announces them
// with __SANITIZE_*__ macros, Clang through __has_feature.
#pragma once

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CNI_MEMORY_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define CNI_MEMORY_SANITIZER 1
#endif
#endif
#ifndef CNI_MEMORY_SANITIZER
#define CNI_MEMORY_SANITIZER 0
#endif
