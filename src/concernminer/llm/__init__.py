"""LLM classification stage: prompts, voting, and chat-completions backends."""
